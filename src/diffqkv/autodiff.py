"""Small reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the toy causal LM: add/mul (only a constant operand
broadcasts), matmul by a weight, reshapes/transposes, gated SiLU, RMS
normalization, rotary embedding, causal attention, embedding lookup and a
fused shifted cross-entropy.  Its ops share names and signatures with
``attention.NUMPY_OPS``, so the model's stages are written once over either,
and each op's forward is the numpy code of :mod:`diffqkv.attention` (the flat
weight GEMM, the complex rotation, the gated SiLU, the RMS norm, the blocked
causal pass): an op adds only its reverse pass, and the two namespaces agree
bit for bit.  No node holds a full score matrix, and gated SiLU keeps
1 + exp(-a) so that its VJP runs no exp.  Nodes form an implicit DAG;
``backward`` walks it once in reverse topological order and accumulates
gradients on leaves.

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

from .attention import _causal, _inverse_rms, _masked_logits, _matmul, _query_groups, _rotate
from .attention import _silu_gate, _spans, _tile_sizes, attention_logits, weighted_value_sum
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

    def __mul__(self, other):
        return mul(self, other)

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() expects a scalar loss, got shape {self.data.shape}")
        # No ancestor of a node without requires_grad has it: filtering those out keeps the others' order.
        topo = [node for node in _post_order(self) if node.requires_grad]
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


def _post_order(out: Tensor) -> list[Tensor]:
    """Every node ``out`` is computed from, constants included, each after all its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    return order


def leaves(out: Tensor) -> list[Tensor]:
    """The parentless Tensors ``out`` is computed from, constants included."""
    return [node for node in _post_order(out) if not node._parents]


def _exact(out: np.ndarray, a: Tensor, b: Tensor) -> np.ndarray:
    """``out``, unless an operand that requires grad does not have its shape: ``ShapeError``.

    Only a constant broadcasts, so each gradient has its operand's shape as it is.
    """
    for x in (a, b):
        if x.requires_grad and x.data.shape != out.shape:
            raise ShapeError(f"{x.data.shape} requires grad, so it cannot broadcast to {out.shape}")
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        _exact(a.data + b.data, a, b),
        parents=(a, b),
        vjp=lambda g: (g if a.requires_grad else None, g if b.requires_grad else None),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        _exact(a.data * b.data, a, b),
        parents=(a, b),
        vjp=lambda g: (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None),
    )


def matmul(a, b) -> Tensor:
    """[..., d] @ [d, n] by a 2-D weight: ``attention._matmul``, with flat 2-D GEMMs in the VJP too.

    The leading axes fold into rows, so the weight gradient is one GEMM
    instead of a batched product summed over the batch.
    """
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim != 2:
        raise ShapeError(f"matmul needs a 2-D right operand, got shape {b.data.shape}")

    def vjp(g):
        ga = _matmul(g, b.data.T) if a.requires_grad else None
        gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if b.requires_grad else None
        return ga, gb

    return Tensor(_matmul(a.data, b.data), parents=(a, b), vjp=vjp)


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

    The forward is ``attention._silu_gate``, whose den = 1 + exp(-a) the node keeps: the VJP runs no exp.
    """
    out, den = _silu_gate(a.data, b.data)

    def vjp(g):
        sig = 1.0 / den
        gated = a.data * sig  # silu(a)
        # d/da silu(a) = sig + silu(a) * (1 - sig)
        ga = (gated * (1.0 - sig) + sig) * b.data * g if a.requires_grad else None
        return ga, g * gated if b.requires_grad else None

    return Tensor(out, parents=(a, b), vjp=vjp)


def rms_norm(x: Tensor, scale: Tensor) -> Tensor:
    """Scale-only RMS normalization of x [..., d] over the last axis, by scale [d]."""
    inv = _inverse_rms(x.data)
    y = x.data * inv
    out = y * scale.data

    def vjp(g):
        # In terms of y = x * inv, so no power of inv can over- or underflow.
        d = y.shape[-1]
        gs = g * scale.data
        gx = inv * (gs - y * (np.einsum("...i,...i->...", gs, y)[..., None] / d))
        return gx, np.einsum("ri,ri->i", g.reshape(-1, d), y.reshape(-1, d))

    return Tensor(out, parents=(x, scale), vjp=vjp)


def causal_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Causal attention of q [b, n_q, s, d] over k [b, s, n_k, d] and v [b, s, n_v, d_v] -> [b, n_q, s, d_v].

    softmax(q·kᵀ)·v, q as ``attention.scored_query`` scales it (a ``mul`` node).
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
        # dK and dV head-major, [b, n, s, d]: each block's += writes one contiguous run.
        dq, dk, dv = np.zeros_like(qd), np.zeros((b, n_k, s, kd.shape[3])), np.zeros((b, n_v, s, vd.shape[3]))
        delta = np.einsum("bhsd,bhsd->bhs", g, heads)[..., None]
        tile, block = _tile_sizes(b, s, n_q, n_k)
        for i in range(0, s, tile):
            rows = slice(i, i + tile)
            q_t, g_t = qd[:, :, rows], g[:, :, rows]
            for a, z, _ in _spans(b, n_q, q_t.shape[2], i + 1, block):
                p = _masked_logits(q_t, kd[:, a:z], i + 1 - a)
                p = np.exp(np.subtract(p, lse[:, :, rows, None], out=p), out=p)
                dv[:, :, a:z] += _grouped_t(p, g_t, n_v)
                ds = attention_logits(g_t, vd[:, a:z])
                ds -= delta[:, :, rows]
                ds *= p
                dq[:, :, rows] += weighted_value_sum(ds, kd[:, a:z])
                dk[:, :, a:z] += _grouped_t(ds, q_t, n_k)
        return dq, dk.transpose(0, 2, 1, 3), dv.transpose(0, 2, 1, 3)

    return Tensor(heads, parents=(q, k, v), vjp=vjp)


def _grouped_t(p: np.ndarray, rows: np.ndarray, n_src: int) -> np.ndarray:
    """p [b, n_q, T, t] transposed onto query rows [b, n_q, T, m], per source head -> [b, n_src, t, m]."""
    return np.matmul(_query_groups(p, n_src).swapaxes(-1, -2), _query_groups(rows, n_src))


def rope(x: Tensor, rot: np.ndarray) -> Tensor:
    """Rotary embedding of [..., s, n, d] by [s, d/2] unit complex rotations.

    The VJP is the transposed rotation, i.e. the rotation by the conjugate.
    """
    return Tensor(_rotate(x.data, rot), parents=(x,), vjp=lambda g: (_rotate(g, rot.conj()),))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, parents=(table,), vjp=vjp)


def _next_token_nll(logits: np.ndarray, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean next-token cross-entropy, log-probs [b, s - 1, V]) of logits [b, s, V] predicting tokens[:, 1:].

    The forward of ``cross_entropy_next_token``, over plain arrays.
    """
    b, s, _ = logits.shape
    if s < 2:
        raise LengthError(f"next-token loss needs at least 2 positions, got {s}")
    pred = logits[:, :-1]
    shifted = pred - pred.max(axis=-1, keepdims=True, initial=-np.inf)
    logprobs = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return -logprobs[_target_index(logprobs, tokens)].sum() / (b * (s - 1)), logprobs


def _target_index(logprobs: np.ndarray, tokens: np.ndarray) -> tuple:
    """Index of each predicting row's next token in log-probs [b, s - 1, V]."""
    b, rows = logprobs.shape[:2]
    return np.arange(b)[:, None], np.arange(rows)[None, :], tokens[:, 1:]


def cross_entropy_next_token(logits: Tensor, tokens: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy: logits [b, s, V] predict tokens[:, 1:], by ``_next_token_nll``."""
    tokens = np.asarray(tokens)
    loss, logprobs = _next_token_nll(logits.data, tokens)

    def vjp(g):
        dpred = np.exp(logprobs)
        dpred[_target_index(logprobs, tokens)] -= 1.0
        dlogits = np.zeros_like(logits.data)
        dlogits[:, :-1] = dpred * (float(g) / (dpred.shape[0] * dpred.shape[1]))
        return (dlogits,)

    return Tensor(loss, parents=(logits,), vjp=vjp)
