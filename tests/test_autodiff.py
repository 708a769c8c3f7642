"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffqkv import attention
from diffqkv import autodiff as ad
from diffqkv.attention import apply_rope, init_attention_weights, naive_diffqkv_attention, project_qkv
from diffqkv.config import AttentionConfig
from diffqkv.errors import LengthError, ShapeError
from diffqkv.reference import _one_shot_causal


def fd_check(build, arrays, step=1e-6, rtol=1e-6, atol=1e-8):
    """Compare analytic gradients of sum(build(*tensors)) against central FD."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = ad.mul(out, np.ones_like(out.data))
    total = ad.Tensor(loss.data.sum(), parents=(loss,), vjp=lambda g: (np.full_like(loss.data, g),))
    total.backward()

    for t_idx, tensor in enumerate(tensors):
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = [a.copy() for a in arrays]
        probe = flat[t_idx].ravel()
        rng = np.random.default_rng(0)
        for idx in rng.choice(probe.size, size=min(6, probe.size), replace=False):
            original = probe[idx]
            probe[idx] = original + step
            f_plus = build(*[ad.Tensor(a) for a in flat]).data.sum()
            probe[idx] = original - step
            f_minus = build(*[ad.Tensor(a) for a in flat]).data.sum()
            probe[idx] = original
            fd = (f_plus - f_minus) / (2 * step)
            assert_allclose(grad.ravel()[idx], fd, rtol=rtol, atol=atol)


RNG = np.random.default_rng(42)


def test_add():
    fd_check(ad.add, [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))])


def test_mul():
    fd_check(ad.mul, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 3, 4))])


@pytest.mark.parametrize("op", [ad.add, ad.mul])
@pytest.mark.parametrize("shapes", [[(4,), (3, 4)], [(1, 4), (2, 3, 4)], [(3, 1), (3, 4)]])
def test_add_and_mul_refuse_to_broadcast_an_operand_that_requires_grad(op, shapes):
    small, large = (ad.Tensor(RNG.normal(size=shape), requires_grad=True) for shape in shapes)
    with pytest.raises(ShapeError, match="requires grad"):
        op(small, large)
    with pytest.raises(ShapeError, match="requires grad"):
        op(large, small)
    # A constant still broadcasts, and its partner's gradient keeps its own shape.
    for out in (op(large, small.data), op(small.data, large)):
        assert out.shape == large.shape
        assert all(g is None or g.shape == large.shape for g in out._vjp(np.ones(large.shape)))


def test_matmul_2d():
    fd_check(ad.matmul, [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])


def test_matmul_batched_times_2d():
    fd_check(ad.matmul, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))])


def test_matmul_refuses_a_batched_right_operand():
    with pytest.raises(ShapeError, match="2-D right operand"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((2, 4, 5))))


def test_reshape_transpose():
    fd_check(
        lambda a: ad.transpose(ad.reshape(a, (2, 3, 4)), (1, 0, 2)),
        [RNG.normal(size=(6, 4))],
    )


def test_gated_silu():
    fd_check(ad.silu_gate, [RNG.normal(size=(3, 5)) * 3, RNG.normal(size=(3, 5))])
    a, b = RNG.normal(size=(2, 4)), RNG.normal(size=(2, 4))
    assert_allclose(ad.silu_gate(ad.Tensor(a), ad.Tensor(b)).data, a / (1 + np.exp(-a)) * b, rtol=1e-15)


def test_every_numpy_op_is_an_autodiff_op_with_the_same_forward():
    # The model's stages run over either namespace, so each op must round exactly alike in both.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7, 2, 6)) * 5  # b = 3
    cases = {
        "matmul": (x, rng.normal(size=(6, 5))),
        "reshape": (x, (3, 7, 12)),
        "transpose": (x, (0, 2, 1, 3)),
        "rope": (x, attention.rope_angles(np.arange(7) * 37 + 5, 6, 10_000.0)),
        "silu_gate": (x, rng.normal(size=x.shape)),
        "rms_norm": (x, rng.normal(size=6)),
        "embedding": (rng.normal(size=(9, 6)), rng.integers(0, 9, size=(3, 7))),
    }
    assert cases.keys() == vars(attention.NUMPY_OPS).keys()
    for name, (a, b) in cases.items():
        graph_b = ad.Tensor(b) if name in ("matmul", "silu_gate", "rms_norm") else b
        got = getattr(ad, name)(ad.Tensor(a), graph_b).data
        assert np.array_equal(got, getattr(attention.NUMPY_OPS, name)(a, b)), name


def test_rms_norm():
    fd_check(ad.rms_norm, [RNG.normal(size=(2, 3, 6)), RNG.normal(size=(6,))])


def test_rms_norm_row_whose_square_overflows():
    out = ad.rms_norm(ad.Tensor([[1e200, 1.0]]), ad.Tensor(np.ones(2)))
    assert_allclose(out.data, [[np.sqrt(2), np.sqrt(2) * 1e-200]], rtol=1e-15)


def test_rms_norm_scale_invariant_at_extreme_magnitudes():
    # Rows scaled by 1e100 and 1e200 normalise alike; their input gradients
    # scale by the inverse factor, with no power of 1/RMS over- or underflowing.
    x, scale, g = RNG.normal(size=(3, 6)), RNG.normal(size=(6,)), RNG.normal(size=(3, 6))
    outs, grads = [], []
    for factor in (1e100, 1e200):
        out = ad.rms_norm(ad.Tensor(x * factor), ad.Tensor(scale))
        gx, gscale = out._vjp(g)
        outs.append(out.data)
        grads.append((gx * factor, gscale))
    assert_allclose(outs[1], outs[0], rtol=1e-12)
    for a, b in zip(*grads):
        assert np.isfinite(a).all() and np.abs(a).max() > 0
        assert_allclose(b, a, rtol=1e-12)


def _attention_inputs(heads, d_k, d_v, b, s, seed=0):
    n_q, n_k, n_v = heads
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(b, n_q, s, d_k))
    k = rng.normal(size=(b, s, n_k, d_k))
    v = rng.normal(size=(b, s, n_v, d_v))
    return q, k, v, rng.normal(size=(b, n_q, s, d_v))


def _one_shot_heads(q, k, v):
    """Per-head causal softmax(q·kᵀ)·v by duplicating K/V to n_q heads: the independent oracle."""
    n_q = q.shape[1]
    k = np.repeat(k, n_q // k.shape[2], axis=2)
    v = np.repeat(v, n_q // v.shape[2], axis=2)
    out = _one_shot_causal(q.transpose(0, 2, 1, 3), k, v, 1)
    return out.reshape(*v.shape).transpose(0, 2, 1, 3)


# Head patterns (n_q, n_k, n_v), d_k, d_v, batch and length; the last rows of
# each pattern run under a 64-score budget, which cuts s = 9 into several
# query tiles and key spans.
CAUSAL_CASES = [
    ((4, 4, 4), 4, 4, 1, 1),
    ((8, 2, 4), 2, 4, 3, 5),
    ((8, 4, 2), 4, 2, 1, 5),
    ((4, 4, 4), 4, 4, 1, 9),
    ((8, 2, 4), 2, 4, 3, 9),
    ((8, 4, 2), 6, 2, 1, 9),
]


@pytest.mark.parametrize("heads,d_k,d_v,b,s", CAUSAL_CASES)
def test_causal_attention(monkeypatch, heads, d_k, d_v, b, s):
    if s == 9:
        monkeypatch.setattr(attention, "_SCORE_BUDGET", 64)
        tile, block = attention._tile_sizes(b, s, heads[0], heads[1])
        assert s > tile
        assert max(len(attention._spans(b, heads[0], tile, i + 1, block)) for i in range(0, s, tile)) >= 2
    q, k, v, coeffs = _attention_inputs(heads, d_k, d_v, b, s)
    out = ad.causal_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v)).data
    assert_allclose(out, _one_shot_heads(q, k, v), rtol=0, atol=1e-12)
    fd_check(lambda *t: ad.mul(ad.causal_attention(*t), coeffs), [q, k, v])


def test_causal_attention_forward_is_the_numpy_core():
    cfg = AttentionConfig(n_q_heads=8, n_k_heads=2, n_v_heads=4, d_head=4, d_k_head=2)
    rng = np.random.default_rng(3)
    w = init_attention_weights(cfg, rng)
    x = rng.normal(size=(2, 7, 32))
    q, k, v = project_qkv(x, w, cfg)
    q, k = apply_rope(q, k, np.arange(7), cfg.rope_theta)
    q = ad.Tensor(attention.scored_query(q, w, cfg).transpose(0, 2, 1, 3))
    heads = ad.causal_attention(q, ad.Tensor(k), ad.Tensor(v)).data
    out = heads.transpose(0, 2, 1, 3).reshape(2, 7, 32) @ w.w_o
    assert_allclose(out, naive_diffqkv_attention(x, w, cfg), rtol=0, atol=1e-12)


def test_causal_attention_masks_exactly():
    # Row r of the output depends on positions <= r only: the gradient of row 2
    # reaches no later key or value, and the first row copies v[0].
    q, k, v, _ = _attention_inputs((4, 2, 2), 4, 4, 2, 6, seed=1)
    tensors = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = ad.causal_attention(*tensors)
    assert_allclose(out.data[:, :, 0], np.repeat(v[:, 0], 2, axis=1), rtol=0, atol=1e-15)
    g = np.zeros_like(out.data)
    g[:, :, 2] = 1.0
    _, dk, dv = out._vjp(g)
    assert not dk[:, 3:].any() and not dv[:, 3:].any()
    assert dv[:, :3].any()


def test_rope():
    from diffqkv.attention import rope_angles

    rot = rope_angles(np.arange(3), 6, theta=100.0)
    fd_check(lambda a: ad.rope(a, rot), [RNG.normal(size=(2, 3, 2, 6))])


def test_embedding():
    ids = np.array([[0, 2, 1], [2, 2, 0]])
    fd_check(lambda table: ad.embedding(table, ids), [RNG.normal(size=(3, 4))])


def test_cross_entropy_next_token():
    tokens = np.array([[0, 2, 1, 3]])
    logits = RNG.normal(size=(1, 4, 5))

    tensor = ad.Tensor(logits.copy(), requires_grad=True)
    loss = ad.cross_entropy_next_token(tensor, tokens)
    loss.backward()

    step = 1e-6
    flat = logits.copy()
    probe = flat.ravel()
    for idx in np.random.default_rng(1).choice(probe.size, size=8, replace=False):
        original = probe[idx]
        probe[idx] = original + step
        f_plus = float(ad.cross_entropy_next_token(ad.Tensor(flat), tokens).data)
        probe[idx] = original - step
        f_minus = float(ad.cross_entropy_next_token(ad.Tensor(flat), tokens).data)
        probe[idx] = original
        assert_allclose(loss.grad is not None and tensor.grad.ravel()[idx],
                        (f_plus - f_minus) / (2 * step), rtol=1e-5, atol=1e-9)


def test_operator_sugar_matches_functions():
    a = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    assert_allclose((a * 2.0).data, ad.mul(a, 2.0).data)
    assert_allclose((a + a).data, ad.add(a, a).data)


def test_backward_requires_scalar():
    t = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        ad.add(t, t).backward()


def test_next_token_loss_needs_two_positions():
    logits = ad.Tensor(np.zeros((2, 1, 5)), requires_grad=True)
    with pytest.raises(LengthError, match="2 positions"):
        ad.cross_entropy_next_token(logits, np.zeros((2, 1), dtype=int))


def test_grad_accumulates_across_shared_nodes():
    # y = x * x: dy/dx = 2x through two paths into the same leaf
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = x * x
    y.backward()
    assert_allclose(x.grad, [6.0])


def test_fan_out_shared_gradient_is_not_mutated():
    # The inner add hands the same gradient array to a and b; a then gets a
    # second contribution through the mul, which must not leak into b.
    fd_check(
        lambda a, b, c: ad.add(ad.add(a, b), ad.mul(a, c)),
        [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))],
    )
    fd_check(
        lambda a, b, c: ad.add(ad.mul(a, c), ad.add(a, b)),
        [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))],
    )


@pytest.mark.parametrize("op,shapes", [
    (ad.add, [(3, 4), (4,)]),
    (ad.mul, [(2, 3, 4), (1, 4)]),
    (ad.matmul, [(2, 3, 4), (4, 5)]),
])
@pytest.mark.parametrize("const_at", [0, 1])
def test_constant_operand_gets_no_gradient(op, shapes, const_at):
    if op is not ad.matmul and const_at == 0:
        shapes = shapes[::-1]  # only the constant may broadcast
    tensors = [ad.Tensor(RNG.normal(size=shape), requires_grad=True) for shape in shapes]
    tensors[const_at] = ad.Tensor(tensors[const_at].data)
    out = op(*tensors)
    grads = out._vjp(np.ones_like(out.data))
    assert grads[const_at] is None
    assert grads[1 - const_at].shape == shapes[1 - const_at]
    total = ad.Tensor(out.data.sum(), parents=(out,), vjp=lambda g: (np.full_like(out.data, g),))
    total.backward()
    assert tensors[const_at].grad is None
    assert tensors[1 - const_at].grad is not None


def test_backward_keeps_root_and_leaf_gradients_only():
    x = ad.Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    hidden = ad.silu_gate(ad.matmul(x, w), ad.matmul(x, w))
    logits = ad.reshape(hidden, (1, 3, 2))
    loss = ad.cross_entropy_next_token(logits, np.array([[0, 1, 1]]))
    loss.backward()
    assert loss.grad is not None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert hidden.grad is None and logits.grad is None
