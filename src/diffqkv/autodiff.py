"""Small reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the toy causal LM: broadcast-aware add/mul, matmul
by a weight, reshapes/transposes, gated SiLU, RMS normalization, rotary
embedding, causal attention, embedding lookup and a fused shifted
cross-entropy, reusing the numpy code of :mod:`diffqkv.attention`; no node
holds a full score matrix.  Its ops share names and signatures with
``attention.NUMPY_OPS``, so the model's stages are written once over either.
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

from .attention import _causal, _inverse_rms, _masked_logits, _query_groups, _rotate
from .attention import _spans, _tile_sizes, attention_logits, silu, weighted_value_sum
from .errors import LengthError, ShapeError


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
            raise ShapeError(f"backward() expects a scalar loss, got shape {self.data.shape}")
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


def leaves(out: Tensor) -> list[Tensor]:
    """The parentless Tensors ``out`` is computed from, constants included."""
    found: list[Tensor] = []
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not node._parents:
            found.append(node)
        stack.extend(node._parents)
    return found


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
    """[..., d] @ [d, n] by a 2-D weight, run as flat 2-D GEMMs."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim != 2:
        raise ShapeError(f"matmul needs a 2-D right operand, got shape {b.data.shape}")
    # Fold the leading axes into rows, so the weight gradient is one GEMM
    # instead of a batched product summed over the batch.
    rows = a.data.reshape(-1, a.data.shape[-1])
    out = (rows @ b.data).reshape(*a.data.shape[:-1], b.data.shape[1])

    def vjp(g):
        g_rows = g.reshape(-1, g.shape[-1])
        ga = (g_rows @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
        gb = rows.T @ g_rows if b.requires_grad else None
        return ga, gb

    return Tensor(out, parents=(a, b), vjp=vjp)


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


def silu_gate(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b, the gated product of the FFN and the augmented-Q block.

    Keeps only its operands: the VJP recomputes sigmoid(a) instead of storing it.
    """
    out = silu(a.data) * b.data

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        gated = a.data * sig  # silu(a)
        # d/da silu(a) = sig + silu(a) * (1 - sig)
        ga = (gated * (1.0 - sig) + sig) * b.data * g if a.requires_grad else None
        return ga, g * gated if b.requires_grad else None

    return Tensor(out, parents=(a, b), vjp=vjp)


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


def causal_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Causal attention of q [b, n_q, s, d] over k [b, s, n_k, d] and v [b, s, n_v, d_v] -> [b, n_q, s, d_v].

    softmax(q·kᵀ)·v, q as ``attention._scored_query`` scales it (a ``mul`` node).
    K and V stay at their native head counts.  The forward is the numpy path's
    blocked pass, ``attention._causal``; the node keeps q, k, v, the output and
    each row's log-sum-exp, never the scores.  The VJP walks the same query
    tiles and key spans, recomputes each block's p = exp(logits - lse) and,
    with D = rowsum(dO * O), forms dV += p^T dO, dS = p * (dO V^T - D),
    dQ += dS K and dK += dS^T Q, grouped per K or V head.
    """
    qd, kd, vd = q.data, k.data, v.data
    heads, lse = _causal(qd, kd, vd, 0)

    def vjp(g):
        b, n_q, s = qd.shape[:3]
        n_k, n_v = kd.shape[2], vd.shape[2]
        dq, dk, dv = np.zeros_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        delta = np.einsum("bhsd,bhsd->bhs", g, heads)[..., None]
        tile, block = _tile_sizes(b, s, n_q, n_k)
        for i in range(0, s, tile):
            rows = slice(i, i + tile)
            q_t, g_t = qd[:, :, rows], g[:, :, rows]
            for a, z, _ in _spans(b, n_q, q_t.shape[2], i + 1, block):
                p = _masked_logits(q_t, kd[:, a:z], i + 1 - a)
                p = np.exp(np.subtract(p, lse[:, :, rows, None], out=p), out=p)
                dv[:, a:z] += _grouped_t(p, g_t, n_v)
                ds = attention_logits(g_t, vd[:, a:z])
                ds -= delta[:, :, rows]
                ds *= p
                dq[:, :, rows] += weighted_value_sum(ds, kd[:, a:z])
                dk[:, a:z] += _grouped_t(ds, q_t, n_k)
        return dq, dk, dv

    return Tensor(heads, parents=(q, k, v), vjp=vjp)


def _grouped_t(p: np.ndarray, rows: np.ndarray, n_src: int) -> np.ndarray:
    """p [b, n_q, T, t] transposed onto query rows [b, n_q, T, m], per source head -> [b, t, n_src, m]."""
    out = np.matmul(_query_groups(p, n_src).swapaxes(-1, -2), _query_groups(rows, n_src))
    return out.transpose(0, 2, 1, 3)


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
        raise LengthError(f"next-token loss needs at least 2 positions, got {s}")
    pred = logits.data[:, :-1]
    targets = tokens[:, 1:]
    shifted = pred - pred.max(axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logprobs = shifted - logz
    count = b * (s - 1)
    rows = np.arange(b)[:, None], np.arange(s - 1)[None, :]
    loss = -logprobs[rows[0], rows[1], targets].sum() / count

    def vjp(g):
        dpred = np.exp(logprobs)
        dpred[rows[0], rows[1], targets] -= 1.0
        dlogits = np.zeros_like(logits.data)
        dlogits[:, :-1] = dpred * (float(g) / count)
        return (dlogits,)

    return Tensor(loss, parents=(logits,), vjp=vjp)
