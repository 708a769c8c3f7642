"""Analytic gradients vs central finite differences.

The attention-level check differentiates through the autodiff graph while the
finite differences probe the plain-numpy naive reference, so agreement pins
down both the gradients and the equality of the two forward paths.
"""

import numpy as np
import pytest

from diffqkv import autodiff as ad
from diffqkv.attention import AttentionWeights, init_attention_weights, naive_diffqkv_attention
from diffqkv.config import AttentionConfig, validate_config
from diffqkv.model import attention_graph
from diffqkv.verify import GRADCHECK_VARIANTS, _gradcheck_model_config, gradient_check

STEP = 1e-5


def attention_variant(heads, d_k_head, aug):
    return validate_config(
        AttentionConfig(
            n_q_heads=heads[0], n_k_heads=heads[1], n_v_heads=heads[2],
            d_head=4, d_k_head=d_k_head, aug_q_dim=aug,
        )
    )


@pytest.mark.parametrize("label", list(GRADCHECK_VARIANTS))
def test_attention_weight_gradients_match_numpy_fd(label):
    heads, d_k_head, aug = GRADCHECK_VARIANTS[label]
    cfg = attention_variant(heads, d_k_head, aug)
    d_model = cfg.n_q_heads * cfg.d_head
    rng = np.random.default_rng(hash(label) % 2**32)
    weights = init_attention_weights(cfg, d_model, rng)
    x = rng.normal(size=(2, 5, d_model))
    coeffs = rng.normal(size=(2, 5, d_model))

    tensors = {name: ad.Tensor(arr, requires_grad=True) for name, arr in weights.named_tensors().items()}
    out = attention_graph(ad.Tensor(x), AttentionWeights(**tensors), cfg)
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
