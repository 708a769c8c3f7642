"""Per-sequence KV cache whose K and V stores have different shapes.

K and V live in separate contiguous regions because their per-token sizes
differ: K holds [b, len, n_k, d_k_head] and V holds [b, len, n_v, d_head].
Capacity is reserved up front so element accounting is exact and deterministic.
One append writes any number of new positions (a whole prompt, or one decode
step) in a single copy per store.  A cache has a single writer; the views
handed out by :meth:`view` are read-only snapshots of the written prefix and
stay valid across later appends (appended positions never mutate earlier ones).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import AttentionConfig, check_attention, check_int
from .errors import CapacityError, CapacityExceededError, DivergenceError, ShapeError
from .tensorio import _finite


class CacheFootprint(NamedTuple):
    k_elements: int
    v_elements: int
    total: int


class DifferentialKVCache:
    """Append-only K/V store for incremental decoding."""

    def __init__(self, cfg: AttentionConfig, batch: int, capacity: int):
        check_attention(cfg=cfg)
        check_int("capacity", capacity, 1, CapacityError)
        check_int("batch", batch, 1, CapacityError)
        self.cfg = cfg
        self.batch = batch
        self.capacity = capacity
        self.len = 0
        try:
            self._k = np.zeros((batch, capacity, cfg.n_k_heads, cfg.d_k_head))
            self._v = np.zeros((batch, capacity, cfg.n_v_heads, cfg.d_head))
        except (ValueError, MemoryError) as exc:  # a size numpy refuses, or memory it cannot get
            raise CapacityError(f"batch {batch} x capacity {capacity} is too large: {exc}") from None

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store s positions at [len, len + s); k [b, s, n_k, d_k_head], v [b, s, n_v, d_head].

        A rejected append (bad shapes, past capacity, or a K or V value that is not a finite
        real: ``DivergenceError``) leaves the cache unchanged.
        """
        s = k.shape[1] if k.ndim == 4 else -1
        want_k = (self.batch, s, self.cfg.n_k_heads, self.cfg.d_k_head)
        want_v = (self.batch, s, self.cfg.n_v_heads, self.cfg.d_head)
        if k.shape != want_k:
            raise ShapeError(f"k has shape {k.shape}, expected {want_k}")
        if v.shape != want_v:
            raise ShapeError(f"v has shape {v.shape}, expected {want_v}")
        if self.len + s > self.capacity:
            raise CapacityExceededError(
                f"appending {s} positions to {self.len} exceeds capacity {self.capacity}"
            )
        for name, x in (("k", k), ("v", v)):
            if not _finite(x):
                raise DivergenceError(f"{name} holds a value that is not a finite real; nothing was appended")
        self._k[:, self.len : self.len + s] = k
        self._v[:, self.len : self.len + s] = v
        self.len += s

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the stored prefix: K [b, len, ...], V [b, len, ...]."""
        k = self._k[:, : self.len]
        v = self._v[:, : self.len]
        k.flags.writeable = False
        v.flags.writeable = False
        return k, v

    def footprint(self) -> CacheFootprint:
        """Exact element counts: total = b * len * (n_k*d_k + n_v*d_v)."""
        k_elements = self.batch * self.len * self.cfg.n_k_heads * self.cfg.d_k_head
        v_elements = self.batch * self.len * self.cfg.n_v_heads * self.cfg.d_head
        return CacheFootprint(k_elements, v_elements, k_elements + v_elements)


def cache_new(cfg: AttentionConfig, batch: int, capacity: int) -> DifferentialKVCache:
    return DifferentialKVCache(cfg, batch, capacity)

