"""The host engine: basis blocks from a bounded LRU block cache.

The paper's Alg. 1 locality payoff applied to the single-node hot path:
the unit of reuse is the view-resident chi block, not a grid-wide
table.  Per-view blocks flow through a byte-bounded LRU
cache: under the budget every block is evaluated once and served from
the cache across SCF/CPSCF cycles; over it memory stays O(budget) and
only what was evicted is evaluated again.  Registered as ``"numpy"``
(the class and module keep their names — ``benchmarks/e2e`` imports
them; DESIGN §8).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.registry import register_backend
from repro.errors import BackendError
from repro.grids.sparsity import BatchView

#: Default block-cache budget (bytes): 40 M float64 chi values, 320 MB.
#: Every system the physics path targets fits (the 32-atom benchmark
#: chain holds 28 MB), so by default no block is evaluated twice; a
#: larger grid degrades to LRU eviction, never to an O(grid) table.
DEFAULT_CACHE_BYTES: int = 8 * 40_000_000


#: ``(scope, rows digest, active-set hash)``.  The rows digest names the
#: view's grid points, so views fused from different batch lists never
#: share an entry; the hash (``None`` on a dense view) makes a screened
#: block self-invalidating — a different pattern can never be served a
#: stale compact block — and the scope (``None`` on a private cache, the
#: fleet's molecule id on a shared one) keeps two molecules apart.
CacheKey = Tuple[Optional[str], Hashable, Optional[str]]


def block_cache_key(
    rows: Hashable,
    scope: Optional[str] = None,
    active_hash: Optional[str] = None,
) -> CacheKey:
    """The LRU key for one basis block.

    >>> block_cache_key("9f2c", scope="mol-0", active_hash="a1")
    ('mol-0', '9f2c', 'a1')
    """
    return (scope, rows, active_hash)


class BlockCache:
    """Byte-bounded LRU cache of per-view basis blocks.

    Keys are :data:`CacheKey` values.  Eviction is strict LRU, and a
    block larger than the whole budget is handed back to its caller but
    never kept, so a zero budget is the streaming regime however few
    views there are.
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

    def add_missing(self, key: CacheKey, block: np.ndarray) -> bool:
        """Count a miss and :meth:`put` *block*, as a :meth:`get` miss and
        its evaluation would, unless *key* is cached; whether it was not.

        >>> cache = BlockCache(1024)
        >>> cache.add_missing(("s", 1, None), np.zeros(4)), cache.misses
        (True, 1)
        >>> cache.add_missing(("s", 1, None), np.ones(4)), cache.misses, cache.hits
        (False, 1, 0)
        """
        if key in self._blocks:
            return False
        self.misses += 1
        self.put(key, block)
        return True

    def put(self, key: CacheKey, block: np.ndarray) -> None:
        """Insert a block, evicting least-recently-used ones over budget."""
        if key in self._blocks:
            self.current_bytes -= int(self._blocks.pop(key).nbytes)
        if block.nbytes > self.max_bytes:
            return
        self._blocks[key] = block
        self.current_bytes += int(block.nbytes)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        while self.current_bytes > self.max_bytes:
            _, evicted = self._blocks.popitem(last=False)
            self.current_bytes -= int(evicted.nbytes)
            self.evictions += 1


@register_backend("numpy")
class BatchedBackend(ExecutionBackend):
    """Host engine: O(budget) working set, LRU-cached blocks."""

    def __init__(
        self,
        max_cache_bytes: Optional[int] = None,
        *,
        cache: Optional[BlockCache] = None,
        scope: Optional[str] = None,
    ) -> None:
        super().__init__()
        # A fleet driver passes one shared `cache` to every molecule's
        # backend plus a per-molecule `scope` widening the keys; the
        # default remains a private cache with unscoped keys.
        if cache is None:
            cache = BlockCache(
                DEFAULT_CACHE_BYTES if max_cache_bytes is None else max_cache_bytes
            )
        elif max_cache_bytes is not None:
            raise BackendError(
                "pass max_cache_bytes or a shared cache, not both: "
                "a shared cache carries its own budget"
            )
        self.cache = cache
        self.scope = scope
        self.profile.cache_max_bytes = self.cache.max_bytes

    def basis_block(self, view: BatchView) -> np.ndarray:
        """Cached block of *view*, with hit/miss/eviction counters kept
        per backend (not copied from the cache, which may be shared
        across molecules — each molecule's profile must charge only its
        own traffic)."""
        key = self._key(view)
        block = self.cache.get(key)
        if block is None:
            block = self._evaluate_block(view)
            evictions = self.cache.evictions
            self.cache.put(key, block)
            self._count_miss(evictions)
        else:
            self.profile.cache_hits += 1
            self.profile.cache_peak_bytes = self.cache.peak_bytes
        return block

    def offer_block(self, view: BatchView, block: np.ndarray, seconds: float) -> None:
        """Keep an offered block only if its view's key is absent, counted
        exactly as the :meth:`basis_block` miss it replaces: on the cache,
        the profile's misses and ``basis`` row, and any evictions.  A block already cached is left as it is, uncounted."""
        evictions = self.cache.evictions
        if self.cache.add_missing(self._key(view), block):
            self._record_evaluation(view, seconds)
            self._count_miss(evictions)

    def _key(self, view: BatchView) -> CacheKey:
        return block_cache_key(view.rows_hash, self.scope, view.active_hash)

    def _count_miss(self, evictions_before: int) -> None:
        """Charge one miss, and the evictions its block caused, to this
        backend's profile."""
        self.profile.cache_misses += 1
        self.profile.cache_evictions += self.cache.evictions - evictions_before
        # Peak occupancy is a property of the (possibly shared) cache.
        self.profile.cache_peak_bytes = self.cache.peak_bytes
