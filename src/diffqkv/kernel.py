"""Split/combine chunked attention over native K/V head counts.

The split scores one query against every chunk of the KV cache through the
grouped core of :mod:`diffqkv.attention`, K and V at their stored head counts
(half-K: the expansion is absorbed into the query).  The valid prefix is
scored in one call; each run of equal-width chunks is then a view of it as a
[n_chunks, n_q, width] grid, so every chunk's partial -- an unnormalized
weighted V sum plus (max, sum-exp) row statistics -- comes from one
vectorized pass per run.  The combine merges the stacked partials in one
stable log-sum-exp reduction, equal to one-pass softmax attention up to
rounding whatever the chunking, grouping or order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionWeights, attention_logits, weighted_value_sum
from .config import ValidatedConfig
from .errors import ConfigError, EmptyInputError, ShapeError
from .kvcache import DifferentialKVCache


@dataclass
class AttentionPartial:
    """Per-chunk result: out_partial[h] = sum_j exp(logit_hj - row_max[h]) * V_j.

    ``row_sumexp == 0`` everywhere marks a fully masked (empty) chunk; combine
    skips such partials.
    """

    out_partial: np.ndarray  # [n_q, d_head]
    row_max: np.ndarray  # [n_q]
    row_sumexp: np.ndarray  # [n_q]

    @property
    def empty(self) -> bool:
        return bool(np.all(self.row_sumexp == 0.0))


@dataclass(frozen=True)
class ChunkPlan:
    """Contiguous, ordered, disjoint ranges covering [0, t)."""

    chunk_size: int
    boundaries: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        cursor = 0
        for start, end in self.boundaries:
            if start != cursor or end <= start:
                raise ValueError(f"boundaries must tile [0, t) contiguously: {self.boundaries}")
            cursor = end

    @property
    def length(self) -> int:
        return self.boundaries[-1][1] if self.boundaries else 0

    @classmethod
    def for_length(cls, t: int, chunk_size: int) -> "ChunkPlan":
        bounds = tuple(
            (start, min(start + chunk_size, t)) for start in range(0, t, chunk_size)
        )
        return cls(chunk_size=chunk_size, boundaries=bounds)


def _chunk_partials(
    logits: np.ndarray, v: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partials of the chunks of ``width`` positions tiling logits [n_q, t] and v [t, n_v, d_v].

    Both are viewed as grids of n = t / width chunks, so no row is copied; returns
    out [n, n_q, d_v], row_max [n, n_q], row_sumexp [n, n_q].
    """
    grid = logits.reshape(len(logits), -1, width).transpose(1, 0, 2)  # [n, n_q, width]
    row_max = grid.max(axis=-1)
    expw = np.exp(grid - row_max[..., None])
    return weighted_value_sum(expw, v.reshape(-1, width, *v.shape[1:])), row_max, expw.sum(axis=-1)


def _merge(out: np.ndarray, row_max: np.ndarray, row_sumexp: np.ndarray) -> np.ndarray:
    """Log-sum-exp merge of stacked partials [n, n_q, d_v] / [n, n_q] -> [n_q, d_v]."""
    scale = np.exp(row_max - row_max.max(axis=0))
    return np.einsum("nhd,nh->hd", out, scale) / (row_sumexp * scale).sum(axis=0)[:, None]


def split_attend(
    q: np.ndarray,
    k_chunk: np.ndarray,
    v_chunk: np.ndarray,
    chunk_range: tuple[int, int],
    scale_dim: int,
    causal_limit: int,
) -> AttentionPartial:
    """Score one query against one KV chunk held at native head counts.

    Args:
        q: [n_q, d] queries in the key dimension (in half-K mode already
            mapped with ``q @ w_k_expand.T``).
        k_chunk: [c, n_k, d] rotary-embedded keys for global positions chunk_range.
        v_chunk: [c, n_v, d_head].
        chunk_range: (start, end) global positions of the chunk rows.
        causal_limit: only positions < causal_limit contribute.
    """
    n_q, d = q.shape
    start, end = chunk_range
    if k_chunk.shape[0] != end - start or v_chunk.shape[0] != end - start or k_chunk.shape[-1] != d:
        raise ShapeError(f"k {k_chunk.shape} / v {v_chunk.shape} do not fit {chunk_range}, dim {d}")

    valid = min(end, causal_limit) - start
    if valid <= 0:
        # Fully masked chunk: sentinel partial that combine will skip.
        return AttentionPartial(np.zeros((n_q, v_chunk.shape[-1])), np.full(n_q, -np.inf), np.zeros(n_q))
    logits = attention_logits(q[None], k_chunk[None, :valid], scale_dim)[0]
    return AttentionPartial(*(a[0] for a in _chunk_partials(logits, v_chunk[:valid], valid)))


def combine_partials(partials: list[AttentionPartial]) -> np.ndarray:
    """Merge chunk partials into the final [n_q, d_head] attention output."""
    live = [p for p in partials if not p.empty]
    if not live:
        raise EmptyInputError("combine_partials: every partial is empty")
    return _merge(*map(np.stack, zip(*((p.out_partial, p.row_max, p.row_sumexp) for p in live))))


def flexhead_attention(
    q: np.ndarray,
    cache: DifferentialKVCache,
    plan: ChunkPlan,
    cfg: ValidatedConfig,
    w: AttentionWeights | None = None,
    causal_limit: int | None = None,
    batch_index: int = 0,
) -> np.ndarray:
    """Chunked attention of one query [n_q, d_head] over a KV cache.

    In half-K mode the cache holds unexpanded d_k_head vectors; the query is
    mapped once with ``q @ w.w_k_expand.T`` and scored against them directly.
    Chunks wholly at or past ``causal_limit`` contribute nothing; the rest are
    split one run of equal widths at a time and merged in one log-sum-exp.
    Output equals the naive attention over the same data for every chunking.
    """
    if plan.length != cache.len:
        raise ShapeError(f"plan covers {plan.length} positions, cache holds {cache.len}")
    if cfg.half_k:
        if w is None or w.w_k_expand is None:
            raise ConfigError("half-K config needs weights with w_k_expand to score the cache")
        q = q @ w.w_k_expand.T
    causal_limit = cache.len if causal_limit is None else causal_limit
    bounds = np.minimum(np.array(plan.boundaries, dtype=np.int64).reshape(-1, 2), causal_limit)
    bounds = bounds[bounds[:, 0] < bounds[:, 1]]  # chunks cut at the causal limit, empty ones dropped
    if not len(bounds):
        raise EmptyInputError("flexhead_attention: every chunk lies past the causal limit")
    k, v = (store[batch_index] for store in cache.view())
    logits = attention_logits(q[None], k[None, : bounds[-1, 1]], cfg.softmax_scale_dim)[0]
    # One pass per run of equal widths: a regular plan's full chunks, then its last one.
    runs = np.split(bounds, np.flatnonzero(np.diff(bounds[:, 1] - bounds[:, 0])) + 1)
    spans = [(r[0, 0], r[-1, 1], r[0, 1] - r[0, 0]) for r in runs]
    parts = [_chunk_partials(logits[:, a:b], v[a:b], width) for a, b, width in spans]
    return _merge(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))
