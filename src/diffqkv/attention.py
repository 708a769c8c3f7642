"""Reference implementation of DiffQKV attention over plain float64 arrays.

One attention core (``attention_logits`` and ``weighted_value_sum``) takes K
and V at their stored head counts: each K (or V) head multiplies the rows of
its group of query heads, times an optional tile of consecutive query
positions, in one product, so no head is ever duplicated.  Softmax is blocked:
``_partial`` turns one block of logits into an unnormalised V sum with its row
max and sum-exp, and ``_merge`` combines partials by log-sum-exp; nothing else
in the numpy path exponentiates logits.  ``cached_attention`` projects and
rotates new positions, absorbs the half-K expansion into the query
(``q @ w_k_expand.T``, exact because rotary acts on K before expansion),
appends their K/V rows to a differential cache and attends each query tile
over blocks of cached keys up to its causal end.  The model's forward and
decode, the kernel and its oracle ``naive_diffqkv_attention`` all run on it.
Apart from the cache a caller passes in, every function is free of side effects.

Shapes follow the convention ``[batch, seq, heads, dim]``; weights are plain
2-D matrices applied on the right (``x @ w``), bias-free throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ValidatedConfig
from .errors import ConfigError, DimensionError, ShapeError
from .kvcache import DifferentialKVCache

RMS_NORM_EPS = 1e-6


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit, x * sigmoid(x)."""
    return x / (1.0 + np.exp(-x))


def _inverse_rms(x: np.ndarray) -> np.ndarray:
    """1 / sqrt(mean(x^2) + eps) over the last axis: the RMS norm of the model and its autodiff twin.

    Rows are divided by their largest |x| (1 if all zero) before squaring, so none overflows.
    """
    peak = np.abs(x).max(axis=-1, keepdims=True)
    peak[peak == 0.0] = 1.0
    rms = peak * np.sqrt(((x / peak) ** 2).sum(axis=-1, keepdims=True) / x.shape[-1])
    return 1.0 / np.hypot(rms, math.sqrt(RMS_NORM_EPS))


@dataclass
class AttentionWeights:
    """Projection weights of one DiffQKV attention layer.

    ``w_q`` maps d_model -> d_model when the augmented-Q block is present
    (the gated block then maps down to n_q*d_head), and d_model -> n_q*d_head
    directly when it is absent.  ``w_k_expand`` is present exactly when the
    stored K dimension is smaller than d_head.
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
        out = {}
        for name in ("w_q", "w_k", "w_v", "w_o", "w_q_gate", "w_q_up", "w_q_down", "w_k_expand"):
            value = getattr(self, name)
            if value is not None:
                out[prefix + name] = value
        return out


@dataclass(frozen=True)
class SelectivePolicy:
    """Top-k policy for selective V fetching (k_top positions per query head)."""

    k_top: int
    renormalize: bool = False

    def __post_init__(self):
        if self.k_top < 1:
            raise ConfigError(f"k_top must be >= 1, got {self.k_top}")


def attention_weight_shapes(cfg: ValidatedConfig, d_model: int) -> dict[str, tuple[int, int]]:
    """Shape of every projection one layer has, in ``AttentionWeights`` field order."""
    q_heads, aug = cfg.n_q_heads * cfg.d_head, cfg.aug_q_dim
    shapes = {
        "w_q": (d_model, d_model if cfg.has_aug_q else q_heads),
        "w_k": (d_model, cfg.n_k_heads * cfg.d_k_head),
        "w_v": (d_model, cfg.n_v_heads * cfg.d_head),
        "w_o": (q_heads, d_model),
    }
    if cfg.has_aug_q:
        shapes.update(w_q_gate=(d_model, aug), w_q_up=(d_model, aug), w_q_down=(aug, q_heads))
    if cfg.half_k:
        shapes["w_k_expand"] = (cfg.d_k_head, cfg.d_head)
    return shapes


def init_attention_weights(
    cfg: ValidatedConfig, d_model: int | None = None, seed: int | np.random.Generator = 0
) -> AttentionWeights:
    """Seeded N(0, 0.02) initialization of all projection weights."""
    if d_model is None:
        d_model = cfg.n_q_heads * cfg.d_head
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shapes = attention_weight_shapes(cfg, d_model)
    return AttentionWeights(**{name: rng.normal(0.0, 0.02, s) for name, s in shapes.items()})


def augment_q(q_base: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Gated query expansion: w_down @ (silu(w_gate(q)) * w_up(q)).

    ``q_base`` is the output of the base query projection, shape [..., d_model];
    the result has shape [..., n_q*d_head].
    """
    if w.w_q_gate is None or w.w_q_up is None or w.w_q_down is None:
        raise ConfigError("augment_q called but the augmented-Q weights are absent")
    return (silu(q_base @ w.w_q_gate) * (q_base @ w.w_q_up)) @ w.w_q_down


def project_qkv(
    x: np.ndarray, w: AttentionWeights, cfg: ValidatedConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project hidden states to per-head q, k, v (no bias terms anywhere).

    Args:
        x: [b, s, d_model] hidden states.
    Returns:
        q [b, s, n_q, d_head], k [b, s, n_k, d_k_head], v [b, s, n_v, d_head].
    """
    if x.ndim != 3 or x.shape[-1] != w.w_q.shape[0]:
        raise ShapeError(
            f"expected x of shape [b, s, {w.w_q.shape[0]}], got {x.shape}"
        )
    b, s, _ = x.shape
    q_flat = x @ w.w_q
    if cfg.has_aug_q:
        q_flat = augment_q(q_flat, w)
    q = q_flat.reshape(b, s, cfg.n_q_heads, cfg.d_head)
    k = (x @ w.w_k).reshape(b, s, cfg.n_k_heads, cfg.d_k_head)
    v = (x @ w.w_v).reshape(b, s, cfg.n_v_heads, cfg.d_head)
    return q, k, v


def rope_angles(positions: np.ndarray, dim: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape [len(positions), dim // 2]."""
    half = dim // 2
    inv_freq = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # x: [..., s, n, d]; cos/sin: [s, d/2]. Consecutive pairs (x0, x1) rotate to
    # (x0*cos - x1*sin, x0*sin + x1*cos).
    even = x[..., 0::2]
    odd = x[..., 1::2]
    c = cos[:, None, :]
    s = sin[:, None, :]
    out = np.empty_like(x)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out


def apply_rope(
    q: np.ndarray, k: np.ndarray, positions, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rotary position embedding on the last dimension of q and k.

    ``positions`` gives the absolute position of each sequence index; q and k
    may have different last dimensions and each uses its own frequency table.
    """
    for name, t in (("q", q), ("k", k)):
        if t.shape[-1] % 2 != 0:
            raise DimensionError(f"rotary embedding needs an even last dim; {name} has {t.shape[-1]}")
    positions = np.asarray(positions)
    q_cos, q_sin = rope_angles(positions, q.shape[-1], theta)
    k_cos, k_sin = rope_angles(positions, k.shape[-1], theta)
    return _rotate(q, q_cos, q_sin), _rotate(k, k_cos, k_sin)


def _query_groups(rows: np.ndarray, n_src: int) -> np.ndarray:
    """Query-side rows [b, n_q, (T,) m] as one row block per source head, [b, n_src, g*T, m].

    Block i holds query heads [i*g, (i+1)*g), g = n_q // n_src, with their tile
    rows: the heads K/V head i serves (head h reads floor(h * n_src / n_q)).
    """
    b, n_q = rows.shape[:2]
    if n_q % n_src != 0:
        raise ShapeError(f"n_q={n_q} query heads cannot be grouped over {n_src} source heads")
    return rows.reshape(b, n_src, -1, rows.shape[-1])


def attention_logits(q: np.ndarray, k: np.ndarray, scale_dim: int) -> np.ndarray:
    """Scaled dot products of queries [b, n_q, (T,) d] with keys [b, t, n_k, d] -> [b, n_q, (T,) t].

    K stays at its native head count: a group's g = n_q / n_k heads times the
    T rows of an optional query tile form the g*T rows of one product per K head.
    """
    if k.shape[0] != q.shape[0] or k.shape[-1] != q.shape[-1]:
        raise ShapeError(f"q {q.shape} does not match k {k.shape}")
    # Scaling the query rows, not the logits, saves a pass over the larger operand.
    rows = _query_groups(q, k.shape[2]) * (1.0 / math.sqrt(scale_dim))
    logits = np.matmul(rows, k.transpose(0, 2, 3, 1))
    return logits.reshape(*q.shape[:-1], k.shape[1])


def _masked_logits(q: np.ndarray, k: np.ndarray, scale_dim: int, limit: int) -> np.ndarray:
    """``attention_logits`` with -inf at key column j of query tile row r wherever j >= limit + r."""
    logits = attention_logits(q, k, scale_dim)
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
    row_max = logits.max(axis=-1, keepdims=True)
    shift = np.maximum(row_max, np.finfo(np.float64).min)  # finite, so -inf - shift is -inf
    p = np.exp(np.subtract(logits, shift, out=logits), out=logits)
    out = p if v is None else weighted_value_sum(p, v)
    return out, row_max[..., 0], p.sum(axis=-1)


def _merge(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Log-sum-exp merge of partials given as stacks on axis 0 -> normalised output [..., d].

    Each stack holds V sums [n, ..., d] with row maxes and sum-exps [n, ...].
    """
    out, row_max, row_sumexp = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    if len(out) == 1:  # a single partial only needs normalising
        return out[0] / row_sumexp[0][..., None]
    scale = np.exp(row_max - row_max.max(axis=0))
    return np.einsum("n...d,n...->...d", out, scale) / (row_sumexp * scale).sum(axis=0)[..., None]


def attention_scores(q: np.ndarray, k: np.ndarray, scale_dim: int, causal_mask_len: int) -> np.ndarray:
    """Per-head softmax attention weights for one query position or a tile of them.

    Args:
        q: [b, n_q, d] query vectors, or [b, n_q, T, d] for a tile of T
            consecutive positions (rotary-embedded; in half-K mode already
            mapped into the stored K dimension with ``q @ w_k_expand.T``).
        k: [b, t, n_k, d] keys at their stored head count, n_k dividing n_q.
        scale_dim: dimension whose square root divides the logits.
        causal_mask_len: positions >= this index (+ r in tile row r) get weight exactly 0.
    Returns:
        alpha: [b, n_q, t] or [b, n_q, T, t]; each unmasked row sums to 1.
    """
    p, _, total = _partial(_masked_logits(q, k, scale_dim, causal_mask_len), None)
    p /= total[..., None]
    return p


def weighted_value_sum(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-head combination of V rows: [b, n_q, (T,) t] x [b, t, n_v, d] -> [b, n_q, (T,) d].

    V stays at its native head count n_v (a divisor of n_q), one product per V head.
    """
    out = np.matmul(_query_groups(alpha, v.shape[2]), v.transpose(0, 2, 1, 3))
    return out.reshape(*alpha.shape[:-1], v.shape[-1])


def _project_heads(o: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """Per-head outputs [b, n_q, (T,) d] -> [b, (T,) d_model]: heads in index order, @ w_o."""
    o = np.moveaxis(o, 1, -2)
    return o.reshape(*o.shape[:-2], -1) @ w_o


def attention_output(alpha: np.ndarray, v: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """alpha [b, n_q, (T,) t] -> [b, (T,) d_model]: weighted V sums, heads in index order, @ w_o."""
    return _project_heads(weighted_value_sum(alpha, v), w_o)


# Elements of one [b, n_q, T, B] block of scores.  Larger blocks mean fewer
# passes but more transient memory; 2**16 float64 scores are 512 KiB.
_SCORE_BUDGET = 1 << 16


def cached_attention(
    x: np.ndarray, w: AttentionWeights, cfg: ValidatedConfig, cache: DifferentialKVCache
) -> np.ndarray:
    """Causal DiffQKV attention of s new positions, x [b, s, d_model] -> [b, s, d_model].

    The new positions are ``cache.len .. cache.len + s - 1``: project ->
    augmented Q -> rotary -> (half-K) expansion absorbed into the query -> one
    append of all s K/V rows to ``cache`` -> per tile of T consecutive queries,
    one softmax partial per block of B stored keys up to the tile's causal end
    (only the diagonal block is masked), merged by log-sum-exp -> output
    projection.  Each block's scores fit ``_SCORE_BUDGET`` elements: a tile
    holds T = sqrt(budget / (b n_k)) / g queries (or all s), so each grouped
    product is about g*T rows square, and B fills the rest of the budget (one
    block whenever every key fits).  Decode is one query per tile.
    """
    start = cache.len
    q, k, v = project_qkv(x, w, cfg)
    b, s = q.shape[:2]
    q, k = apply_rope(q, k, np.arange(start, start + s), cfg.rope_theta)
    if cfg.half_k:
        q = q @ w.w_k_expand.T
    cache.append(k, v)
    k_all, v_all = cache.view()
    q = q.transpose(0, 2, 1, 3)  # [b, n_q, s, d]: a tile is a slice of axis 2
    n_q, n_k = q.shape[1], k_all.shape[2]
    tile = max(1, min(math.isqrt(_SCORE_BUDGET // (b * n_k)) // (n_q // n_k), s))
    block = max(1, _SCORE_BUDGET // (b * n_q * tile))
    out = np.empty((b, s, w.w_o.shape[1]))
    for i in range(0, s, tile):
        first, end = start + i + 1, start + min(i + tile, s)  # keys seen by the first and last row
        q_tile, parts = q[:, :, i : i + tile], []
        for j in range(0, end, block):
            keys = slice(j, min(j + block, end))
            logits = _masked_logits(q_tile, k_all[:, keys], cfg.softmax_scale_dim, first - j)
            parts.append(tuple(a[None] for a in _partial(logits, v_all[:, keys])))  # one stack per block
        out[:, i : i + tile] = _project_heads(_merge(parts), w.w_o)
    return out


def naive_diffqkv_attention(x: np.ndarray, w: AttentionWeights, cfg: ValidatedConfig) -> np.ndarray:
    """Causal attention over a whole sequence, one query tile at a time: the kernel's oracle."""
    b, s = x.shape[:2]
    return cached_attention(x, w, cfg, DifferentialKVCache(cfg, b, max(s, 1)))


def select_top_k(alpha: np.ndarray, policy: SelectivePolicy) -> np.ndarray:
    """Keep the k_top highest weights per head (ties to the earliest position).

    Dropped positions get weight 0; if ``policy.renormalize`` the kept weights
    are rescaled to sum to 1.  With k_top >= t the input is returned unchanged.
    """
    t = alpha.shape[-1]
    if policy.k_top >= t:
        return alpha
    # Stable sort on -alpha: equal weights keep ascending position order.
    order = np.argsort(-alpha, axis=-1, kind="stable")
    kept = order[..., : policy.k_top]
    mask = np.zeros_like(alpha)
    np.put_along_axis(mask, kept, 1.0, axis=-1)
    selected = alpha * mask
    if policy.renormalize:
        selected = selected / selected.sum(axis=-1, keepdims=True)
    return selected


def selective_v_attention(
    alpha: np.ndarray, v: np.ndarray, policy: SelectivePolicy, w_o: np.ndarray
) -> np.ndarray:
    """Approximate attention output using only the top-k V rows per head."""
    return attention_output(select_top_k(alpha, policy), v, w_o)
