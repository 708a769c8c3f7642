"""Reference implementation of DiffQKV attention over plain float64 arrays.

One attention core (``attention_logits`` and ``weighted_value_sum``) takes K
and V at their stored head counts: each K (or V) head multiplies the rows of
its group of query heads, times an optional tile of consecutive query
positions, in one product, so no head is ever duplicated.  Softmax is blocked:
``_partial`` turns one block of logits into an unnormalised V sum with its row
max and sum-exp, and ``_merge`` combines partials by log-sum-exp, also giving
each row's log-sum-exp; nothing else in the numpy path exponentiates logits.
``_attend`` is the one chunked pass over cached keys built on them, and
``_causal`` runs it over tiles of queries; the core scores unscaled q·kᵀ.
``attention_layer`` is a layer's one composition, over ``NUMPY_OPS`` or the
same-named ops of :mod:`diffqkv.autodiff`: it projects and rotates new
positions, prepares the query in ``scored_query`` (the one place the half-K
expansion is absorbed into it and the 1/sqrt(d_head) scale applied) and
hands q, k, v to the caller's ``attend``: ``cached_attention`` appends them to
the cache whose config it runs and reads it through the FlexHead kernel,
``kernel.flexhead_attention`` (``_causal`` behind its checks), training runs
``autodiff.causal_attention`` (the same ``_causal`` with a VJP).  Every op of
``NUMPY_OPS`` is written here once and is also the forward of its autodiff
twin: ``_matmul`` (one 2-D GEMM over the flattened leading axes),
``_rotate`` (multiplication by the unit complex rotations of ``rope_angles``),
``_silu_gate`` and ``_inverse_rms``, so both namespaces give bit-equal
results at every batch.  Apart from the cache a caller passes in, every
function is free of side effects.

Shapes follow the convention ``[batch, seq, heads, dim]``; weights are plain
2-D matrices applied on the right (``ops.matmul(x, w)``), bias-free throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import kernel  # it imports this module back; each reads the other only at call time
from .config import AttentionConfig, check_attention, check_int, check_real
from .errors import ConfigError, DimensionError, EmptyInputError, PositionError, ShapeError, UsageError
from .kvcache import DifferentialKVCache

RMS_NORM_EPS = 1e-6


def _inverse_rms(x: np.ndarray) -> np.ndarray:
    """1 / sqrt(mean(x^2) + eps) over the last axis: the RMS norm of both op namespaces.

    Rows are divided by their largest |x| (1 if all zero) before squaring, so none overflows.
    """
    peak = np.abs(x).max(axis=-1, keepdims=True, initial=0.0)
    peak[peak == 0.0] = 1.0
    unit = x / peak
    rms = peak * np.sqrt(np.einsum("...i,...i->...", unit, unit)[..., None] / x.shape[-1])
    return 1.0 / np.hypot(rms, math.sqrt(RMS_NORM_EPS))


def _rotate(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    # x: [..., s, n, d]; rot: [s, d/2] unit complex numbers. Each pair (x0, x1), as x0 + i*x1,
    # is multiplied by its rotation cos + i*sin, giving (x0*cos - x1*sin, x0*sin + x1*cos).
    x = np.asarray(x, dtype=np.float64)
    if x.strides[-1] != x.itemsize:  # pairs must be adjacent to view them as complex
        x = x.copy()
    return (x.view(np.complex128) * rot[:, None, :]).view(np.float64)


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x [..., d] by a weight w [d, n] -> [..., n], as one 2-D GEMM over the flattened leading axes."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _silu_gate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(silu(a) * b, den): the gated product of the FFN and the augmented-Q block, den = 1 + exp(-a)."""
    den = 1.0 + np.exp(-a)
    return a / den * b, den


# The array ops ``attention_layer`` and the model's stages are written over, for
# inference.  :mod:`diffqkv.autodiff` has the same names and signatures over
# Tensors, and runs these forwards; ``+`` and ``*`` stay operators in both.
NUMPY_OPS = SimpleNamespace(
    matmul=_matmul,
    reshape=np.reshape,
    transpose=np.transpose,
    rope=_rotate,
    silu_gate=lambda a, b: _silu_gate(a, b)[0],
    rms_norm=lambda x, scale: x * _inverse_rms(x) * scale,
    embedding=lambda table, ids: table[ids],
)


@dataclass
class AttentionWeights:
    """Projection weights of one DiffQKV attention layer.

    ``w_q`` maps d_model -> d_model when the augmented-Q block is present
    (the gated block then maps down to n_q*d_head), and d_model -> n_q*d_head
    directly when it is absent.  ``w_k_expand`` is present exactly when the
    stored K dimension is smaller than d_head.  The training graph builds the
    same structure around autodiff Tensors.
    """

    w_q: np.ndarray  # [d_model, d_model] or [d_model, n_q*d_head]
    w_k: np.ndarray  # [d_model, n_k*d_k_head]
    w_v: np.ndarray  # [d_model, n_v*d_head]
    w_o: np.ndarray  # [n_q*d_head, d_model]
    w_q_gate: np.ndarray | None = None  # [d_model, aug_q_dim]
    w_q_up: np.ndarray | None = None  # [d_model, aug_q_dim]
    w_q_down: np.ndarray | None = None  # [aug_q_dim, n_q*d_head]
    w_k_expand: np.ndarray | None = None  # [d_k_head, d_head]

    def named_tensors(self, prefix: str = "") -> dict[str, np.ndarray]:
        present = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {prefix + name: value for name, value in present if value is not None}


@dataclass(frozen=True)
class SelectivePolicy:
    """Top-k policy for selective V fetching (k_top positions per query head)."""

    k_top: int

    def __post_init__(self):
        check_int("k_top", self.k_top, 1)


def attention_weight_shapes(cfg: AttentionConfig) -> dict[str, tuple[int, int]]:
    """Shape of every projection one layer has, in ``AttentionWeights`` field order."""
    d_model = cfg.d_model  # the residual width, also the query heads' n_q * d_head
    aug = cfg.aug_q_dim
    shapes = {
        "w_q": (d_model, d_model),
        "w_k": (d_model, cfg.n_k_heads * cfg.d_k_head),
        "w_v": (d_model, cfg.n_v_heads * cfg.d_head),
        "w_o": (d_model, d_model),
    }
    if cfg.has_aug_q:
        shapes.update(w_q_gate=(d_model, aug), w_q_up=(d_model, aug), w_q_down=(aug, d_model))
    if cfg.half_k:
        shapes["w_k_expand"] = (cfg.d_k_head, cfg.d_head)
    return shapes


def init_attention_weights(cfg: AttentionConfig, seed: int | np.random.Generator = 0) -> AttentionWeights:
    """Seeded N(0, 0.02) initialization of every projection ``attention_weight_shapes`` lists."""
    check_attention(cfg=cfg)
    rng = seed
    if not isinstance(rng, np.random.Generator):
        check_int("seed", seed, 0, UsageError)
        rng = np.random.default_rng(seed)
    shapes = attention_weight_shapes(cfg)
    return AttentionWeights(**{name: rng.normal(0.0, 0.02, s) for name, s in shapes.items()})


def augment_q(q_base, w: AttentionWeights, ops=NUMPY_OPS):
    """Gated query expansion: w_down @ (silu(w_gate(q)) * w_up(q)).

    ``q_base`` is the output of the base query projection, shape [..., d_model];
    the result has shape [..., n_q*d_head].
    """
    if w.w_q_gate is None or w.w_q_up is None or w.w_q_down is None:
        raise ConfigError("augment_q called but the augmented-Q weights are absent")
    gated = ops.silu_gate(ops.matmul(q_base, w.w_q_gate), ops.matmul(q_base, w.w_q_up))
    return ops.matmul(gated, w.w_q_down)


def project_qkv(x, w: AttentionWeights, cfg: AttentionConfig, ops=NUMPY_OPS) -> tuple:
    """Project hidden states to per-head q, k, v (no bias terms anywhere).

    Args:
        x: [b, s, d_model] hidden states.
        w: of exactly the shapes ``attention_weight_shapes(cfg)`` lists (else ``ConfigError``).
    Returns:
        q [b, s, n_q, d_head], k [b, s, n_k, d_k_head], v [b, s, n_v, d_head].
    """
    if len(x.shape) != 3 or x.shape[-1] != w.w_q.shape[0]:
        raise ShapeError(f"expected x of shape [b, s, {w.w_q.shape[0]}], got {x.shape}")
    got, want = {n: tuple(t.shape) for n, t in w.named_tensors().items()}, attention_weight_shapes(cfg)
    if got != want:
        wrong = [f"{n} {got.get(n)}, not {want.get(n)}" for n in sorted(got | want)
                 if got.get(n) != want.get(n)]
        raise ConfigError(f"the weights do not fit the config: {'; '.join(wrong)}")
    b, s, _ = x.shape
    q_flat = ops.matmul(x, w.w_q)
    if cfg.has_aug_q:
        q_flat = augment_q(q_flat, w, ops)
    q = ops.reshape(q_flat, (b, s, cfg.n_q_heads, cfg.d_head))
    k = ops.reshape(ops.matmul(x, w.w_k), (b, s, cfg.n_k_heads, cfg.d_k_head))
    v = ops.reshape(ops.matmul(x, w.w_v), (b, s, cfg.n_v_heads, cfg.d_head))
    return q, k, v


def rope_angles(positions: np.ndarray, dim: int, theta: float) -> np.ndarray:
    """Rotations cos + i*sin [len(positions), dim // 2]; ``ConfigError`` unless ``check_real`` takes theta."""
    check_real("theta", theta)
    half = dim // 2
    inv_freq = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles) + 1j * np.sin(angles)


def apply_rope(q, k, positions, theta: float, ops=NUMPY_OPS) -> tuple:
    """Rotary position embedding on the last dimension of q and k.

    ``positions`` gives the absolute position of each sequence index, so it
    holds one entry per index of the sequence axis (``shape[-3]``) of q and
    of k, else ``ShapeError``; q and k may have different last dimensions and
    each uses its own frequency table (one table serves both when the
    dimensions agree).  The base ``theta`` is checked as ``rope_angles`` checks it.
    """
    positions = np.asarray(positions)
    for name, t in (("q", q), ("k", k)):
        if t.shape[-1] % 2 != 0:
            raise DimensionError(f"rotary embedding needs an even last dim; {name} has {t.shape[-1]}")
        if positions.shape != tuple(t.shape[-3:-2]):
            raise ShapeError(f"positions {positions.shape} do not fit the sequence axis of {name} {t.shape}")
    tables = {d: rope_angles(positions, d, theta) for d in {q.shape[-1], k.shape[-1]}}
    return ops.rope(q, tables[q.shape[-1]]), ops.rope(k, tables[k.shape[-1]])


def _query_groups(rows: np.ndarray, n_src: int) -> np.ndarray:
    """Query-side rows [b, n_q, (T,) m] as one row block per source head, [b, n_src, g*T, m].

    Block i holds query heads [i*g, (i+1)*g), g = n_q // n_src, with their tile
    rows: the heads K/V head i serves (head h reads floor(h * n_src / n_q)).
    """
    b, n_q = rows.shape[:2]
    if n_q % n_src != 0:
        raise ShapeError(f"n_q={n_q} query heads cannot be grouped over {n_src} source heads")
    return rows.reshape(b, n_src, -1, rows.shape[-1])


def attention_logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Dot products of queries [b, n_q, (T,) d] with keys [b, t, n_k, d] -> [b, n_q, (T,) t].

    K stays at its native head count: a group's g = n_q / n_k heads times the
    T rows of an optional query tile form the g*T rows of one product per K head.
    """
    if k.shape[0] != q.shape[0] or k.shape[-1] != q.shape[-1]:
        raise ShapeError(f"q {q.shape} does not match k {k.shape}")
    logits = np.matmul(_query_groups(q, k.shape[2]), k.transpose(0, 2, 3, 1))
    return logits.reshape(*q.shape[:-1], k.shape[1])


def _masked_logits(q: np.ndarray, k: np.ndarray, limit: int) -> np.ndarray:
    """``attention_logits`` with -inf at key column j of query tile row r wherever j >= limit + r."""
    logits = attention_logits(q, k)
    t = k.shape[1]
    if limit < t:
        row = np.arange(q.shape[2])[:, None] if q.ndim == 4 else 0
        logits += np.where(np.arange(t) >= limit + row, -np.inf, 0.0)
    return logits


def _partial(logits: np.ndarray, v: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax partial of logits [b, n_q, (T,) t] over one block of keys, exponentiated in place.

    Returns (sum_j p_j * v_j, m, sum_j p_j) with m the row max and
    p_j = exp(logit_j - m), V [b, t, n_v, d] at its stored head count; with
    ``v=None`` the weights p themselves stand in for the V sum.  A row that is
    -inf throughout (fully masked) gets p = 0 and m = -inf, so it adds nothing
    to a merge.
    """
    row_max = logits.max(axis=-1, keepdims=True, initial=-np.inf)  # with an identity, fast on short rows
    shift = np.maximum(row_max, np.finfo(np.float64).min)  # finite, so -inf - shift is -inf
    p = np.exp(np.subtract(logits, shift, out=logits), out=logits)
    out = p if v is None else weighted_value_sum(p, v)
    return out, row_max[..., 0], p.sum(axis=-1)


def _merge(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp merge of partials given as stacks on axis 0 -> (normalised output [..., d], lse [...]).

    Each stack holds V sums [n, ..., d] with row maxes and sum-exps [n, ...].
    """
    out, row_max, row_sumexp = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    if len(out) == 1:  # a single partial only needs normalising
        return out[0] / row_sumexp[0][..., None], row_max[0] + np.log(row_sumexp[0])
    peak = row_max.max(axis=0)
    scale = np.exp(row_max - peak)
    total = (row_sumexp * scale).sum(axis=0)
    return np.einsum("n...d,n...->...d", out, scale) / total[..., None], peak + np.log(total)


def _check_causal_limit(name: str, limit, t: int) -> None:
    """``PositionError`` unless ``limit`` is an integer; ``EmptyInputError`` if none of t keys is below it."""
    check_int(name, limit, None, PositionError)
    if min(t, limit) < 1:
        raise EmptyInputError(f"no key below {name}={limit} among {t} positions")


def attention_scores(q: np.ndarray, k: np.ndarray, causal_mask_len: int) -> np.ndarray:
    """Per-head softmax attention weights for one query position or a tile of them.

    Args:
        q: [b, n_q, d] query vectors, or [b, n_q, T, d] for a tile of T
            consecutive positions, as ``scored_query`` prepares them.
        k: [b, t, n_k, d] keys at their stored head count, n_k dividing n_q.
        causal_mask_len: positions >= this index (+ r in tile row r) get weight exactly 0;
            an integer of at least 1 (``PositionError`` for a non-integer,
            ``EmptyInputError`` below 1 or for a k with no positions).  A limit
            past k's last position is accepted and masks nothing there: the
            limit only masks, unlike ``kernel.flexhead_attention``, whose
            ``causal_limit`` names cached positions and is refused when a
            tile row would run past the cache.
    Returns:
        alpha: [b, n_q, t] or [b, n_q, T, t], softmax(q·kᵀ); each row sums to 1.
    """
    _check_causal_limit("causal_mask_len", causal_mask_len, k.shape[1])
    p, _, total = _partial(_masked_logits(q, k, causal_mask_len), None)
    p /= total[..., None]
    return p


def weighted_value_sum(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-head combination of V rows: [b, n_q, (T,) t] x [b, t, n_v, d] -> [b, n_q, (T,) d].

    V stays at its native head count n_v (a divisor of n_q), one product per V head.
    """
    out = np.matmul(_query_groups(alpha, v.shape[2]), v.transpose(0, 2, 1, 3))
    return out.reshape(*alpha.shape[:-1], v.shape[-1])


def attention_output(alpha: np.ndarray, v: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """alpha [b, n_q, (T,) t] -> [b, (T,) d_model]: weighted V sums, heads in index order, @ w_o."""
    o = np.moveaxis(weighted_value_sum(alpha, v), 1, -2)
    return _matmul(o.reshape(*o.shape[:-2], w_o.shape[0]), w_o)


# Elements of one [b, n_q, T, B] block of scores.  Larger blocks mean fewer
# passes but more transient memory; 2**16 float64 scores are 512 KiB.
_SCORE_BUDGET = 1 << 16


def _tile_sizes(b: int, s: int, n_q: int, n_k: int) -> tuple[int, int]:
    """Query tile T and key block B of a pass over s new positions, b*n_q*T*B <= ``_SCORE_BUDGET``.

    T = sqrt(budget / (b n_k)) / g queries (or all s), so each grouped product
    is about g*T rows square; B fills the rest of the budget.
    """
    tile = max(1, min(math.isqrt(_SCORE_BUDGET // (b * n_k)) // (n_q // n_k), s))
    return tile, max(1, _SCORE_BUDGET // (b * n_q * tile))


def _spans(b: int, n_q: int, rows: int, first: int, width: int) -> list[tuple[int, int, int]]:
    """Spans (a, z, c) of keys [a, z) in chunks of c that ``_attend`` scores in one call each.

    Whole chunks of ``width`` fill a span up to ``_SCORE_BUDGET`` scores; a clipped last chunk stands alone.
    """
    end = first + rows - 1  # keys seen by the last row
    whole = end - end % width
    step = width * max(1, _SCORE_BUDGET // (b * n_q * rows * width))
    spans = [(a, min(a + step, whole), width) for a in range(0, whole, step)]
    if whole < end:
        spans.append((whole, end, end - whole))
    return spans


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, first: int, width: int) -> tuple:
    """Causal attention of query rows q [b, n_q, T, d] over cached K/V [b, t, n, d] -> (heads, lse).

    Heads are [b, n_q, T, d_v] and lse [b, n_q, T].  Row r sees keys
    [0, first + r), in the ``_spans`` of chunks of ``width`` keys.  Each span
    is scored in one call, masked only where it crosses the diagonal, and
    viewed chunk-major, so one ``_partial`` call gives all its chunk partials;
    every partial then goes into one ``_merge``.
    """
    b, n_q, rows = q.shape[:3]
    parts = []
    for a, z, c in _spans(b, n_q, rows, first, width):
        n = (z - a) // c
        logits = _masked_logits(q, k[:, a:z], first - a).reshape(b, n_q, rows, n, c)
        # [n*b, ...] grids, chunk-major: V stays a view when b == 1 or n == 1.
        grid = logits.transpose(3, 0, 1, 2, 4).reshape(n * b, n_q, rows, c)
        v_grid = v[:, a:z].reshape(b, n, c, *v.shape[2:]).swapaxes(0, 1).reshape(n * b, c, *v.shape[2:])
        parts.append(tuple(x.reshape(n, b, *x.shape[1:]) for x in _partial(grid, v_grid)))
    return _merge(parts)


def _causal(q: np.ndarray, k: np.ndarray, v: np.ndarray, start: int, block: int | None = None) -> tuple:
    """Causal attention of queries q [b, n_q, s, d] at positions start.. over K/V [b, t, n, d].

    Returns (heads [b, n_q, s, d_v], lse [b, n_q, s]): ``_attend`` over tiles of
    T queries in key chunks of width ``block``, T and the default block from ``_tile_sizes``.
    """
    b, n_q, s = q.shape[:3]
    tile, default = _tile_sizes(b, s, n_q, k.shape[2])
    heads, lse = np.empty((b, n_q, s, v.shape[-1])), np.empty((b, n_q, s))
    for i in range(0, s, tile):
        rows = slice(i, i + tile)
        heads[:, :, rows], lse[:, :, rows] = _attend(q[:, :, rows], k, v, start + i + 1, block or default)
    return heads, lse


def scored_query(q, w: AttentionWeights | None, cfg: AttentionConfig, ops=NUMPY_OPS):
    """A rotated query [..., d_head] as the core scores it: q·k with a stored key is the logit.

    Half-K maps it by ``q @ w_k_expand.T`` (exact: rotary acts on K before
    expansion; ``ConfigError`` without w_k_expand), then it is scaled by 1/sqrt(d_head).
    A last dim other than ``cfg.d_head`` raises ``ShapeError``.
    """
    if q.shape[-1] != cfg.d_head:
        raise ShapeError(f"a query of {cfg.d_head} dims is scored, got shape {q.shape}")
    if cfg.half_k:
        if w is None or w.w_k_expand is None:
            raise ConfigError("half-K config needs weights with w_k_expand to score the cache")
        q = ops.matmul(q, ops.transpose(w.w_k_expand, (1, 0)))
    return q * (1.0 / math.sqrt(cfg.d_head))


def attention_layer(
    x, w: AttentionWeights, cfg: AttentionConfig, start: int, attend, ops=NUMPY_OPS
):
    """Causal DiffQKV attention of s positions start.., x [b, s, d_model] -> [b, s, d_model].

    Project -> augmented Q -> rotary -> ``scored_query`` ->
    ``attend(q [b, n_q, s, d], k, v)``, which returns the heads
    [b, n_q, s, d_v] -> output projection, all in ``ops``: ``NUMPY_OPS`` or
    :mod:`diffqkv.autodiff`.
    """
    q, k, v = project_qkv(x, w, cfg, ops)
    b, s = q.shape[:2]
    q, k = apply_rope(q, k, np.arange(start, start + s), cfg.rope_theta, ops)
    heads = attend(ops.transpose(scored_query(q, w, cfg, ops), (0, 2, 1, 3)), k, v)
    return ops.matmul(ops.reshape(ops.transpose(heads, (0, 2, 1, 3)), (b, s, w.w_o.shape[0])), w.w_o)


def cached_attention(x: np.ndarray, w: AttentionWeights, cache: DifferentialKVCache) -> np.ndarray:
    """``attention_layer`` of s new positions at ``cache.len``.., x [b, s, d_model] -> [b, s, d_model].

    It runs ``cache.cfg``, so all keys in a cache share one layout and rotary base, and attends
    by one append of all s K/V rows to ``cache`` and one FlexHead kernel call over the cache.
    """

    def attend(q, k, v):
        cache.append(k, v)
        return kernel.flexhead_attention(q, cache)

    return attention_layer(x, w, cache.cfg, cache.len, attend)


def naive_diffqkv_attention(x: np.ndarray, w: AttentionWeights, cfg: AttentionConfig) -> np.ndarray:
    """Causal attention over a whole sequence through the cached pass, on a scratch cache of ``cfg``."""
    b, s = x.shape[:2]
    return cached_attention(x, w, DifferentialKVCache(cfg, b, max(s, 1)))


def select_top_k(alpha: np.ndarray, policy: SelectivePolicy) -> np.ndarray:
    """Keep the k_top highest weights per head (ties to the earliest position).

    Dropped positions get weight 0; the kept weights are not rescaled.  With
    k_top >= t the input is returned unchanged.
    """
    t = alpha.shape[-1]
    if policy.k_top >= t:
        return alpha
    # Stable sort on -alpha: equal weights keep ascending position order.
    order = np.argsort(-alpha, axis=-1, kind="stable")
    kept = order[..., : policy.k_top]
    mask = np.zeros_like(alpha)
    np.put_along_axis(mask, kept, 1.0, axis=-1)
    return alpha * mask


def selective_v_attention(
    alpha: np.ndarray, v: np.ndarray, policy: SelectivePolicy, w_o: np.ndarray
) -> np.ndarray:
    """Approximate attention output using only the top-k V rows per head."""
    return attention_output(select_top_k(alpha, policy), v, w_o)
