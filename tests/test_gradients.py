"""Analytic gradients vs central finite differences.

The attention-level check differentiates ``attention_layer`` over autodiff ops
while the finite differences probe the same layer over numpy ops (the naive
reference), so agreement pins down both the gradients and the equality of the
two op namespaces.
"""

import numpy as np
import pytest

from diffqkv import autodiff as ad
from diffqkv.attention import (
    AttentionWeights,
    attention_layer,
    init_attention_weights,
    naive_diffqkv_attention,
)
from diffqkv.config import AttentionConfig
from diffqkv.model import (
    as_parameter_tensors,
    init_model,
    loss_graph,
    staged_forward,
)
from diffqkv.errors import UsageError
from diffqkv.verify import GRADCHECK_VARIANTS, _gradcheck_model_config, gradient_check

STEP = 1e-5


def attention_variant(heads, d_k_head, aug):
    return AttentionConfig(
        n_q_heads=heads[0], n_k_heads=heads[1], n_v_heads=heads[2],
        d_head=4, d_k_head=d_k_head, aug_q_dim=aug,
    )


@pytest.mark.parametrize("label", list(GRADCHECK_VARIANTS))
def test_attention_weight_gradients_match_numpy_fd(label):
    heads, d_k_head, aug = GRADCHECK_VARIANTS[label]
    cfg = attention_variant(heads, d_k_head, aug)
    d_model = cfg.n_q_heads * cfg.d_head
    rng = np.random.default_rng(hash(label) % 2**32)
    weights = init_attention_weights(cfg, rng)
    x = rng.normal(size=(2, 5, d_model))
    coeffs = rng.normal(size=(2, 5, d_model))

    tensors = {name: ad.Tensor(arr, requires_grad=True) for name, arr in weights.named_tensors().items()}
    out = attention_layer(ad.Tensor(x), AttentionWeights(**tensors), cfg, 0, ad.causal_attention, ad)
    np.testing.assert_allclose(out.data, naive_diffqkv_attention(x, weights, cfg), atol=1e-12)

    loss = ad.mul(out, coeffs)
    total = ad.Tensor(loss.data.sum(), parents=(loss,), vjp=lambda g: (np.full_like(loss.data, g),))
    total.backward()

    for name, tensor in tensors.items():
        flat = getattr(weights, name).ravel()
        grad = tensor.grad.ravel()
        idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for idx in idxs:
            original = flat[idx]
            flat[idx] = original + STEP
            f_plus = float((coeffs * naive_diffqkv_attention(x, weights, cfg)).sum())
            flat[idx] = original - STEP
            f_minus = float((coeffs * naive_diffqkv_attention(x, weights, cfg)).sum())
            flat[idx] = original
            fd = (f_plus - f_minus) / (2 * STEP)
            rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-4)
            assert rel < 1e-4, f"{label}.{name}[{idx}]: analytic={grad[idx]}, fd={fd}"


@pytest.mark.parametrize("label", ["diffqkv+augq", "diffqkv+halfk"])
def test_model_gradient_check(label):
    heads, d_k, aug = GRADCHECK_VARIANTS[label]
    errors = gradient_check(_gradcheck_model_config(heads, d_k, aug), samples_per_tensor=3)
    worst = max(errors.values())
    assert worst < 1e-4, errors


def full_forward_gradient_check(cfg, seed=0, samples_per_tensor=4, step=1e-5, batch=2, seq=5):
    """``gradient_check`` as a whole-graph oracle: the same samples, in the same
    order, with every perturbed loss a full ``loss_graph`` over fresh Tensors."""
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, cfg.vocab_size, size=(batch, seq))
    params = as_parameter_tensors(model)
    loss_graph(params, cfg, tokens).backward()

    def loss_value():
        return float(loss_graph(as_parameter_tensors(model), cfg, tokens).data)

    errors = {}
    for name, arr in model.named_tensors().items():
        flat = arr.ravel()
        idxs = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        grad = params[name].grad
        grad_flat = grad.ravel() if grad is not None else np.zeros(flat.size)
        worst = 0.0
        for idx in idxs:
            original = flat[idx]
            flat[idx] = original + step
            f_plus = loss_value()
            flat[idx] = original - step
            f_minus = loss_value()
            flat[idx] = original
            fd = (f_plus - f_minus) / (2 * step)
            a = grad_flat[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
        errors[name] = worst
    return errors


# Four samples per tensor stack 8 perturbations in one tail, as ``verify`` runs it.
@pytest.mark.parametrize(
    "seed,samples_per_tensor", [(0, 2), (5, 2), (0, 4)], ids=["0", "5", "0-samples4"]
)
@pytest.mark.parametrize("label", list(GRADCHECK_VARIANTS))
def test_staged_gradient_check_equals_full_forward_oracle(label, seed, samples_per_tensor):
    cfg = _gradcheck_model_config(*GRADCHECK_VARIANTS[label])
    staged = gradient_check(cfg, seed=seed, samples_per_tensor=samples_per_tensor)
    assert staged == full_forward_gradient_check(
        cfg, seed=seed, samples_per_tensor=samples_per_tensor
    )


def test_finite_differences_build_no_graph(monkeypatch):
    # Perturbed losses run the numpy stages: the Tensors a check makes do not grow with its samples.
    made, init = [], ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    cfg = _gradcheck_model_config(*GRADCHECK_VARIANTS["diffqkv+augq"])
    counts = []
    for samples_per_tensor in (1, 3):
        made.clear()
        gradient_check(cfg, samples_per_tensor=samples_per_tensor)
        counts.append(len(made))
    assert counts[0] > 0 and counts[0] == counts[1]


@pytest.mark.parametrize("args", [dict(seed=-1), dict(seed=0.5), dict(samples_per_tensor=0)])
def test_gradient_check_refuses_bad_seed_and_sample_count(args):
    with pytest.raises(UsageError):
        gradient_check(_gradcheck_model_config(*GRADCHECK_VARIANTS["mha"]), **args)


@pytest.mark.parametrize("label", list(GRADCHECK_VARIANTS))
class TestStageMap:
    @pytest.fixture
    def staged(self, label):
        cfg = _gradcheck_model_config(*GRADCHECK_VARIANTS[label])
        model = init_model(cfg, seed=3)
        tokens = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(2, 7))
        return model, tokens, staged_forward(model, tokens)

    def test_stages_in_order_reproduce_loss_graph(self, staged):
        model, tokens, (stages, inputs, _) = staged
        assert len(stages) == 2 + 2 * model.config.n_layers
        x = tokens
        for stage in stages:
            x = stage(x)
        chained = ad.cross_entropy_next_token(x, tokens).data
        resumed = ad.cross_entropy_next_token(stages[-1](inputs[-1]), tokens).data
        full = loss_graph(as_parameter_tensors(model), model.config, tokens).data
        assert np.array_equal(chained, full) and np.array_equal(resumed, full)
        for k in range(1, len(stages)):
            assert np.array_equal(stages[k - 1](inputs[k - 1]).data, inputs[k].data)

    def test_every_parameter_is_read_by_exactly_one_stage(self, staged, label):
        model, _, (_, _, reads) = staged
        names = model.named_tensors()
        if label == "diffqkv+halfk":
            assert "blocks.0.attn.w_k_expand" in names
        if label == "diffqkv+augq":
            assert {"blocks.1.attn.w_q_gate", "blocks.1.attn.w_q_up", "blocks.1.attn.w_q_down"} <= names.keys()
        for name in names:
            assert sum(name in stage_names for stage_names in reads) == 1, name
