"""Split/combine chunked attention over native K/V head counts.

The split stage scores one query against a chunk of the KV sequence with the
grouped core of :mod:`diffqkv.attention`: K and V stay at their stored head
counts, and each block of n_q / n_i query heads is addressed against its one
K/V head (``idx_i = floor(idx_q * n_i / n_q)``).  In half-K mode the K
expansion is absorbed into the query (``q @ w_k_expand.T``), so chunks are
scored in the stored K dimension and never expanded.  Each chunk yields an
:class:`AttentionPartial` — an unnormalized weighted V sum plus (max, sum-exp)
row statistics.  The combine stage merges partials by a numerically stable
log-sum-exp reduction that is mathematically identical to one-pass softmax
attention, whatever the chunking.

Split calls over distinct chunks are independent; combine is a deterministic
reduction whose result does not depend on grouping or order.
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
    if k_chunk.shape[0] != end - start or v_chunk.shape[0] != end - start:
        raise ShapeError(
            f"chunk rows {k_chunk.shape[0]}/{v_chunk.shape[0]} do not match range {chunk_range}"
        )
    if k_chunk.shape[-1] != d:
        raise ShapeError(f"k_chunk dim {k_chunk.shape[-1]} != query dim {d}")

    valid = min(end, causal_limit) - start
    if valid <= 0:
        # Fully masked chunk: sentinel partial that combine will skip.
        return AttentionPartial(
            out_partial=np.zeros((n_q, v_chunk.shape[-1])),
            row_max=np.full(n_q, -np.inf),
            row_sumexp=np.zeros(n_q),
        )

    logits = attention_logits(q[None], k_chunk[None, :valid], scale_dim)[0]
    row_max = logits.max(axis=1)
    expw = np.exp(logits - row_max[:, None])
    out = weighted_value_sum(expw[None], v_chunk[None, :valid])[0]
    return AttentionPartial(out_partial=out, row_max=row_max, row_sumexp=expw.sum(axis=1))


def combine_partials(partials: list[AttentionPartial]) -> np.ndarray:
    """Merge chunk partials into the final [n_q, d_head] attention output."""
    live = [p for p in partials if not p.empty]
    if not live:
        raise EmptyInputError("combine_partials: every partial is empty")
    row_max = np.max([p.row_max for p in live], axis=0)
    z = np.zeros_like(row_max)
    out = np.zeros_like(live[0].out_partial)
    for p in live:
        w = np.exp(p.row_max - row_max)
        z += p.row_sumexp * w
        out += p.out_partial * w[:, None]
    return out / z[:, None]


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
    Output equals the naive attention over the same data for every chunking.
    """
    if plan.length != cache.len:
        raise ShapeError(f"plan covers {plan.length} positions, cache holds {cache.len}")
    if cfg.half_k:
        if w is None or w.w_k_expand is None:
            raise ConfigError("half-K config needs weights with w_k_expand to score the cache")
        q = q @ w.w_k_expand.T
    if causal_limit is None:
        causal_limit = cache.len
    k_store, v_store = cache.view()
    partials = []
    for start, end in plan.boundaries:
        k_chunk = k_store[batch_index, start:end]
        v_chunk = v_store[batch_index, start:end]
        partials.append(
            split_attend(q, k_chunk, v_chunk, (start, end), cfg.softmax_scale_dim, causal_limit)
        )
    return combine_partials(partials)
