"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffqkv import autodiff as ad


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


def test_add_broadcast():
    fd_check(ad.add, [RNG.normal(size=(3, 4)), RNG.normal(size=(4,))])


def test_mul_broadcast():
    fd_check(ad.mul, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(1, 4))])


def test_matmul_2d():
    fd_check(ad.matmul, [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])


def test_matmul_batched_times_2d():
    fd_check(ad.matmul, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))])


def test_matmul_batched_both():
    fd_check(ad.matmul, [RNG.normal(size=(2, 5, 3, 4)), RNG.normal(size=(2, 5, 4, 3))])


def test_reshape_transpose():
    fd_check(
        lambda a: ad.transpose(ad.reshape(a, (2, 3, 4)), (1, 0, 2)),
        [RNG.normal(size=(6, 4))],
    )


def test_silu():
    fd_check(ad.silu, [RNG.normal(size=(3, 5))])


def test_rms_norm():
    fd_check(ad.rms_norm, [RNG.normal(size=(2, 3, 6)), RNG.normal(size=(6,))])


def test_softmax_last():
    fd_check(ad.softmax_last, [RNG.normal(size=(2, 4, 5))])


def test_softmax_with_masked_entries():
    mask = np.triu(np.full((5, 5), -np.inf), k=1)
    fd_check(lambda a: ad.softmax_last(ad.add(a, mask)), [RNG.normal(size=(2, 5, 5))])


def test_softmax_with_causal_bias():
    bias = np.triu(np.full((5, 5), -np.inf), k=1)
    fd_check(lambda a: ad.softmax_last(a, bias), [RNG.normal(size=(2, 3, 5, 5))])
    y = ad.softmax_last(ad.Tensor(RNG.normal(size=(4, 5))), bias[:4]).data
    assert_allclose(y.sum(axis=-1), 1.0)
    assert (y[np.triu_indices(4, k=1, m=5)] == 0.0).all()


def test_rope():
    from diffqkv.attention import rope_angles

    cos, sin = rope_angles(np.arange(3), 6, theta=100.0)
    fd_check(lambda a: ad.rope(a, cos, sin), [RNG.normal(size=(2, 3, 2, 6))])


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
    b = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    assert_allclose((a @ b).data, ad.matmul(a, b).data)
    assert_allclose((a * 2.0).data, ad.mul(a, 2.0).data)
    assert_allclose((a + a).data, ad.add(a, a).data)


def test_backward_requires_scalar():
    t = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(t, t).backward()


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
    (ad.matmul, [(2, 3, 4), (2, 4, 5)]),
])
@pytest.mark.parametrize("const_at", [0, 1])
def test_constant_operand_gets_no_gradient(op, shapes, const_at):
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
    hidden = ad.silu(x @ w)
    logits = ad.reshape(hidden, (1, 3, 2))
    loss = ad.cross_entropy_next_token(logits, np.array([[0, 1, 1]]))
    loss.backward()
    assert loss.grad is not None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert hidden.grad is None and logits.grad is None
