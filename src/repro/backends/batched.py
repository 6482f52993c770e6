"""Batch-local streaming backend with a bounded LRU block cache.

The paper's Alg. 1 locality payoff applied to the single-node hot path:
instead of one O(grid) basis table, per-:class:`GridBatch` chi blocks
stream through a byte-bounded LRU cache and every contraction is
accumulated batch by batch.  Memory stays O(cache bound) no matter how
large the grid grows, and — unlike the legacy over-``_CACHE_LIMIT``
path — blocks that fit the cache are *never* re-evaluated across
SCF/CPSCF cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.registry import register_backend
from repro.errors import BackendError
from repro.grids.sparsity import BatchView

#: Default block-cache budget (bytes); ~64 MiB holds every block of the
#: molecules the physics path targets while staying strictly bounded.
DEFAULT_CACHE_BYTES: int = 64 << 20


#: Dense blocks key on the batch index; screened compact blocks key on
#: ``(batch index, active-set hash)`` so a pattern change can never
#: serve a stale compact block.  Backends sharing one cache across
#: molecules (the fleet driver) additionally prefix every key with a
#: per-molecule *scope*, so two molecules' batch 0 can never alias.
CacheKey = Union[int, Tuple]


def block_cache_key(
    batch_index: int,
    scope: Optional[str] = None,
    active_hash: Optional[str] = None,
) -> CacheKey:
    """The LRU key for one basis block.

    Unscoped dense keys stay plain ints (the single-molecule layout the
    backend benchmark pins); the screened variant appends the
    pattern's active-set hash, and a *scope* (the fleet's molecule id)
    prefixes either form so distinct molecules occupy disjoint key
    spaces in a shared cache.

    >>> block_cache_key(3)
    3
    >>> block_cache_key(3, active_hash="a1")
    (3, 'a1')
    >>> block_cache_key(3, scope="mol-0")
    ('mol-0', 3)
    >>> block_cache_key(3, scope="mol-0", active_hash="a1")
    ('mol-0', 3, 'a1')
    """
    key: Tuple = (int(batch_index),)
    if active_hash is not None:
        key = key + (active_hash,)
    if scope is not None:
        return (scope,) + key
    return key[0] if len(key) == 1 else key


class BlockCache:
    """Byte-bounded LRU cache of per-batch basis blocks.

    Keys are :data:`CacheKey` values — plain batch indices for dense
    ``(batch_points, n_basis)`` blocks, ``(batch, active-set hash)``
    tuples for compact screened blocks.  Eviction is strict LRU, except
    that the most recently inserted block always survives (a single
    block larger than the budget must still be usable — it is simply
    evicted by the next insertion).
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise BackendError(f"cache budget must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._blocks: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self.current_bytes = 0
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._blocks

    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """The cached block, refreshed to most-recently-used; else None."""
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        return block

    def put(self, key: CacheKey, block: np.ndarray) -> None:
        """Insert a block, evicting least-recently-used ones over budget."""
        if key in self._blocks:
            self.current_bytes -= int(self._blocks.pop(key).nbytes)
        self._blocks[key] = block
        self.current_bytes += int(block.nbytes)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        while self.current_bytes > self.max_bytes and len(self._blocks) > 1:
            _, evicted = self._blocks.popitem(last=False)
            self.current_bytes -= int(evicted.nbytes)
            self.evictions += 1

    def clear(self) -> None:
        self._blocks.clear()
        self.current_bytes = 0


@register_backend("batched")
class BatchedBackend(ExecutionBackend):
    """Streaming backend: O(batch) working set, LRU-cached blocks."""

    def __init__(
        self,
        max_cache_bytes: int = DEFAULT_CACHE_BYTES,
        *,
        cache: Optional[BlockCache] = None,
        scope: Optional[str] = None,
    ) -> None:
        super().__init__()
        # A fleet driver passes one shared `cache` to every molecule's
        # backend plus a per-molecule `scope` widening the keys; the
        # default remains a private cache with unscoped keys.
        self.cache = cache if cache is not None else BlockCache(max_cache_bytes)
        self.scope = scope
        self.profile.cache_max_bytes = self.cache.max_bytes

    def basis_block(self, view: BatchView) -> np.ndarray:
        """Cached block of *view*, with hit/miss/eviction counters kept
        per backend (not copied from the cache, which may be shared
        across molecules — each molecule's profile must charge only its
        own traffic)."""
        from repro.obs.tracer import obs_counter

        # The active-set hash in a screened view's key makes compact
        # entries self-invalidating: a different pattern (tighter
        # threshold, new structure) can never alias a stale block.
        key = block_cache_key(
            view.index, scope=self.scope, active_hash=view.active_hash
        )
        block = self.cache.get(key)
        if block is None:
            obs_counter("backend.cache.misses")
            self.profile.cache_misses += 1
            block = self._evaluate_block(view)
            evictions_before = self.cache.evictions
            self.cache.put(key, block)
            self.profile.cache_evictions += (
                self.cache.evictions - evictions_before
            )
        else:
            obs_counter("backend.cache.hits")
            self.profile.cache_hits += 1
        # Peak occupancy is a property of the (possibly shared) cache.
        self.profile.cache_peak_bytes = self.cache.peak_bytes
        return block
