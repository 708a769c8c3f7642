"""Chunked attention of one query over a KV cache, held at native head counts.

The kernel scores one query against every chunk of the cache through the
grouped core of :mod:`diffqkv.attention`, K and V at their stored head counts
(half-K: the expansion is absorbed into the query).  The valid prefix is
scored in one call; each run of equal-width chunks is then a view of it as a
[n_chunks, n_q, width] grid, so the softmax partial of every chunk (the
attention core's unnormalised V sum with its row max and sum-exp) comes from
one vectorised pass per run.  The partials merge in the core's one log-sum-exp
reduction, equal to one-pass softmax attention up to rounding whatever the
chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionWeights, _merge, _partial, attention_logits
from .config import ValidatedConfig
from .errors import ConfigError, EmptyInputError, ShapeError
from .kvcache import DifferentialKVCache


@dataclass(frozen=True)
class ChunkPlan:
    """Contiguous, ordered, disjoint ranges covering [0, t)."""

    chunk_size: int
    boundaries: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        cursor = 0
        for start, end in self.boundaries:
            if start != cursor or end <= start:
                raise ConfigError(f"boundaries must tile [0, t) contiguously: {self.boundaries}")
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
    # Each run as chunk grids: V [n, width, n_v, d] is a view, the logits a contiguous
    # [n, n_q, width] copy that the partial exponentiates in place.
    parts = [
        _partial(
            np.ascontiguousarray(logits[:, a:b].reshape(len(logits), -1, width).transpose(1, 0, 2)),
            v[a:b].reshape(-1, width, *v.shape[1:]),
        )
        for a, b, width in spans
    ]
    return _merge(parts)
