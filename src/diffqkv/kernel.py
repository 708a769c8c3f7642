"""The paper's FlexHead kernel: a split-KV decode over a cache whose K and V head counts differ.

Each query attends the cached keys in chunks of a given width, K and V at
their stored head counts (half-K: the expansion is absorbed into the query),
through the chunked pass a decode step of ``cached_attention`` runs with its
key block as the width; any width gives the one-pass softmax up to rounding.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionWeights, _attend
from .config import AttentionConfig, check_int
from .errors import ConfigError, EmptyInputError, PositionError, ShapeError
from .kvcache import DifferentialKVCache


def flexhead_attention(
    q: np.ndarray,
    cache: DifferentialKVCache,
    chunk: int,
    cfg: AttentionConfig,
    w: AttentionWeights | None = None,
    causal_limit: int | None = None,
) -> np.ndarray:
    """Attention of queries q [b, n_q, d_head] over cached keys [0, causal_limit) -> [b, n_q, d_head].

    In half-K mode the query is mapped once with ``q @ w.w_k_expand.T`` and
    scored against the unexpanded keys.  Keys are cut into chunks of ``chunk``
    positions (the last one clipped); the limit defaults to ``cache.len``.
    """
    if q.ndim != 3:
        raise ShapeError(f"expected q of shape [b, n_q, d], got {q.shape}")
    if cfg.half_k:
        if w is None or w.w_k_expand is None:
            raise ConfigError("half-K config needs weights with w_k_expand to score the cache")
        q = q @ w.w_k_expand.T
    limit = cache.len if causal_limit is None else causal_limit
    if min(cache.len, limit) < 1:
        raise EmptyInputError(f"flexhead_attention: no key below causal limit {limit} in {cache.len} cached")
    if limit > cache.len:
        raise PositionError(f"causal limit {limit} is past the {cache.len} cached positions")
    check_int("chunk", chunk, 1)
    k, v = cache.view()
    return _attend(q[:, :, None], k, v, cfg.softmax_scale_dim, limit, chunk)[0][:, :, 0]
