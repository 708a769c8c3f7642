"""Small reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the toy causal LM: broadcast-aware add/mul, batched
matmul, reshapes/transposes, SiLU, RMS normalization, last-axis softmax,
rotary embedding, embedding lookup and a fused shifted cross-entropy.  RMS
normalization and rotary reuse the numpy formulas of :mod:`diffqkv.attention`.
Nodes form an implicit DAG; ``backward`` walks it once in reverse topological
order and accumulates gradients on leaves.

Gradient ownership: a node adopts its first gradient contribution as-is, with
no zero-filled buffer, and sums later ones out of place.  A VJP may therefore
hand back the incoming gradient itself or a view of it (``add`` passes it
through, ``reshape``/``transpose`` return views), so the same array can be a
gradient of several nodes and no gradient array is ever mutated in place.  An
interior node's gradient is released once its VJP has run; the root and the
leaves keep theirs.  An operand with ``requires_grad=False`` (a constant such
as a mask or a scale) gets no gradient computed: its VJP slot is ``None``.
"""

from __future__ import annotations

import numpy as np

from .attention import _inverse_rms, _rotate


class Tensor:
    """A value in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(node.grad)):
                if not parent.requires_grad or pgrad is None:
                    continue
                parent.grad = pgrad if parent.grad is None else parent.grad + pgrad
            if node is not self:
                node.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        parents=(a, b),
        vjp=lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        parents=(a, b),
        vjp=lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        ),
    )


def matmul(a, b) -> Tensor:
    """Batched matmul; a 2-D right operand (a weight) runs as flat 2-D GEMMs."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim == 2:
        # [..., d] @ [d, n]: fold the leading axes into rows, so the weight
        # gradient is one GEMM instead of a batched product summed over the batch.
        rows = a.data.reshape(-1, a.data.shape[-1])
        out = (rows @ b.data).reshape(*a.data.shape[:-1], b.data.shape[1])

        def vjp(g):
            g_rows = g.reshape(-1, g.shape[-1])
            ga = (g_rows @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
            gb = rows.T @ g_rows if b.requires_grad else None
            return ga, gb

        return Tensor(out, parents=(a, b), vjp=vjp)

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return Tensor(a.data @ b.data, parents=(a, b), vjp=vjp)


def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(
        a.data.reshape(shape),
        parents=(a,),
        vjp=lambda g: (g.reshape(a.data.shape),),
    )


def transpose(a: Tensor, axes) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return Tensor(
        a.data.transpose(axes),
        parents=(a,),
        vjp=lambda g: (g.transpose(inverse),),
    )


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig
    # d/dx [x*sig(x)] = sig(x) * (1 + x * (1 - sig(x)))
    return Tensor(
        out,
        parents=(a,),
        vjp=lambda g: (g * sig * (1.0 + a.data * (1.0 - sig)),),
    )


def rms_norm(x: Tensor, scale: Tensor) -> Tensor:
    """Scale-only RMS normalization over the last axis."""
    inv = _inverse_rms(x.data)
    y = x.data * inv
    out = y * scale.data

    def vjp(g):
        # In terms of y = x * inv, so no power of inv can over- or underflow.
        gs = g * scale.data
        gx = inv * (gs - y * np.mean(gs * y, axis=-1, keepdims=True))
        return gx, _unbroadcast(g * y, scale.data.shape)

    return Tensor(out, parents=(x, scale), vjp=vjp)


def softmax_last(a: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax of ``a + bias`` over the last axis.

    ``bias`` is a constant additive mask (broadcast against ``a``); its -inf
    entries get probability 0.  The forward pass and the VJP each work in one
    buffer of ``a``'s size.
    """
    y = a.data.copy() if bias is None else a.data + bias
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        # y * (g - sum(g * y)), reusing the g * y buffer.
        buf = g * y
        np.subtract(g, buf.sum(axis=-1, keepdims=True), out=buf)
        buf *= y
        return (buf,)

    return Tensor(y, parents=(a,), vjp=vjp)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary embedding of [..., s, n, d] given [s, d/2] angle tables.

    The VJP is the transposed rotation, i.e. the rotation by -angle.
    """
    return Tensor(
        _rotate(x.data, cos, sin), parents=(x,), vjp=lambda g: (_rotate(g, cos, -sin),)
    )


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, parents=(table,), vjp=vjp)


def cross_entropy_next_token(logits: Tensor, tokens: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy: logits [b, s, V] predict tokens[:, 1:]."""
    tokens = np.asarray(tokens)
    b, s, _ = logits.data.shape
    if s < 2:
        raise ValueError("need at least 2 positions for next-token loss")
    pred = logits.data[:, :-1]
    targets = tokens[:, 1:]
    shifted = pred - pred.max(axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logprobs = shifted - logz
    count = b * (s - 1)
    rows = np.arange(b)[:, None], np.arange(s - 1)[None, :]
    loss = -logprobs[rows[0], rows[1], targets].sum() / count

    def vjp(g):
        probs = np.exp(logprobs)
        dpred = probs.copy()
        dpred[rows[0], rows[1], targets] -= 1.0
        dlogits = np.zeros_like(logits.data)
        dlogits[:, :-1] = dpred * (float(g) / count)
        return (dlogits,)

    return Tensor(loss, parents=(logits,), vjp=vjp)
