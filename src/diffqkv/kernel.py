"""The paper's FlexHead kernel: the split-KV pass every cached attention call runs.

It attends a tile of queries, already scored by ``attention.scored_query``,
over a cache whose K and V head counts differ, K and V at their stored head
counts, through the attention core's chunked pass; any chunk width gives the
one-pass softmax up to rounding.  ``cached_attention`` reaches it through this
module's binding, so each prefill tile and decode step runs it.
"""

from __future__ import annotations

import numpy as np

from . import attention
from .config import check_int
from .errors import DivergenceError, PositionError, ShapeError
from .kvcache import DifferentialKVCache
from .tensorio import _finite


def flexhead_attention(
    q, cache: DifferentialKVCache, chunk: int | None = None, causal_limit: int | None = None
) -> np.ndarray:
    """Attention of a tile of scored queries q [b, n_q, T, d_k_head] over the cache -> [b, n_q, T, d_head].

    Row r attends the cached keys [0, causal_limit + r); the limit defaults to
    ``cache.len - T + 1``, so the tile is the last T cached positions.  Keys are
    cut into chunks of ``chunk`` positions (the last one clipped), by default the
    pass's own key block.  q must have the cache's batch, head count and stored
    K dim (else ``ShapeError``) and be finite and real (else ``DivergenceError``,
    before the cache is read).  A row running past ``cache.len`` raises
    ``PositionError``; an empty tile (T = 0) gives empty heads under any limit.
    """
    q = np.asarray(q)
    cfg = cache.cfg
    if q.ndim != 4 or q.shape[:2] != (cache.batch, cfg.n_q_heads) or q.shape[3] != cfg.d_k_head:
        raise ShapeError(f"q {q.shape} is not [{cache.batch}, {cfg.n_q_heads}, T, {cfg.d_k_head}]")
    if not _finite(q):
        raise DivergenceError("the query holds a value that is not a finite real")
    if chunk is not None:
        check_int("chunk", chunk, 1)
    rows = q.shape[2]
    if rows == 0:  # no row reads the cache, so no limit applies
        return np.empty((*q.shape[:3], cfg.d_head))
    limit = cache.len - rows + 1 if causal_limit is None else causal_limit
    attention._check_causal_limit("causal_limit", limit, cache.len)
    if limit + rows - 1 > cache.len:
        raise PositionError(f"tile rows reach {limit + rows - 1} keys, past the {cache.len} cached positions")
    return attention._causal(q, *cache.view(), limit - 1, chunk)[0]
