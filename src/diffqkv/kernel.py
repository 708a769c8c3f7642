"""The paper's FlexHead kernel: a split-KV decode over a cache whose K and V head counts differ.

Each query, prepared by ``attention._scored_query`` under the cache's config,
attends the cached keys in chunks of a given width, K and V at their stored head
counts, through the chunked pass a decode step of ``cached_attention`` runs with
its key block as the width; any width gives the one-pass softmax up to rounding.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionWeights, _attend, _scored_query
from .config import check_int
from .errors import EmptyInputError, PositionError, ShapeError
from .kvcache import DifferentialKVCache


def flexhead_attention(
    q: np.ndarray,
    cache: DifferentialKVCache,
    chunk: int,
    w: AttentionWeights | None = None,
    causal_limit: int | None = None,
) -> np.ndarray:
    """Attention of queries q [b, n_q, d_head] over cached keys [0, causal_limit) -> [b, n_q, d_head].

    The query is prepared by ``_scored_query`` under ``cache.cfg`` (half-K needs
    ``w.w_k_expand``), then scored against the stored keys.  Keys are cut into chunks
    of ``chunk`` positions (the last one clipped); the integer limit defaults to ``cache.len``.
    """
    if q.ndim != 3:
        raise ShapeError(f"expected q of shape [b, n_q, d], got {q.shape}")
    q = _scored_query(q, w, cache.cfg)
    limit = cache.len if causal_limit is None else causal_limit
    if min(cache.len, limit) < 1:
        raise EmptyInputError(f"flexhead_attention: no key below causal limit {limit} in {cache.len} cached")
    check_int("causal_limit", limit, 1, PositionError)
    if limit > cache.len:
        raise PositionError(f"causal limit {limit} is past the {cache.len} cached positions")
    check_int("chunk", chunk, 1)
    k, v = cache.view()
    return _attend(q[:, :, None], k, v, limit, chunk)[0][:, :, 0]
