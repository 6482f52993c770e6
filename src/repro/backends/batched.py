"""The host engine: basis blocks kept under a byte budget.

The paper's Alg. 1 locality payoff applied to the single-node hot path:
the unit of reuse is the view-resident chi block, not a grid-wide
table.  A *resident set* is fixed at bind time — the bound builder's
views whose blocks fit the budget, first fit in sweep order — and
their blocks are evaluated once and served from memory across
SCF/CPSCF cycles; under the budget that is every view.  Every other
view, and any view fused from another batch list (a rank's share), is
evaluated on each pass and not kept: a cyclic sweep under LRU would
evict each block just before it is needed again and hit nothing.
It is the one engine, named ``"numpy"`` (the class and module keep
their names — ``benchmarks/e2e`` imports them; DESIGN §8);
:func:`resolve_backend` turns a driver's ``backend=`` into a bound one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple, Union

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.errors import BackendError
from repro.grids.sparsity import BatchView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dft.hamiltonian import MatrixBuilder

#: Default block budget (bytes): 40 M float64 chi values, 320 MB.
#: Every system the physics path targets fits (the 32-atom benchmark
#: chain holds 28 MB), so by default no block is evaluated twice; on a
#: larger grid the views that fit stay resident and the rest are
#: evaluated on every pass, never an O(grid) table.
DEFAULT_CACHE_BYTES: int = 8 * 40_000_000


#: ``(rows digest, active-set hash)``.  The rows digest names the view's
#: grid points, so views fused from different batch lists never share
#: an entry; the hash (``None`` on a dense view) makes a screened block
#: self-invalidating — a different pattern can never be served a stale
#: compact block.
CacheKey = Tuple[str, Optional[str]]


class BatchedBackend(ExecutionBackend):
    """Host engine: the resident views' blocks kept, the rest evaluated."""

    name = "numpy"

    def __init__(self, max_cache_bytes: Optional[int] = None) -> None:
        super().__init__()
        budget = DEFAULT_CACHE_BYTES if max_cache_bytes is None else int(max_cache_bytes)
        if budget < 0:
            raise BackendError(f"cache budget must be >= 0, got {budget}")
        self.max_cache_bytes = budget
        self.profile.cache_max_bytes = budget
        #: The kept blocks, by :data:`CacheKey`; only resident views'.
        self.blocks: Dict[CacheKey, np.ndarray] = {}
        self._resident: FrozenSet[CacheKey] = frozenset()

    def _on_bind(self) -> None:
        """Fix the resident set: the views, in sweep order, whose blocks
        still fit the budget (first fit).  Sweeps walk the views in one
        order, so over the budget this keeps a fixed share warm where
        LRU would evict each block just before its next use."""
        free, resident = self.max_cache_bytes, []
        for view in self._require_bound().views:
            nbytes = 8 * view.point_indices.size * view.cols.size
            if nbytes <= free:
                free -= nbytes
                resident.append(self._key(view))
        self._resident = frozenset(resident)

    def basis_block(self, view: BatchView) -> np.ndarray:
        """The kept block of *view*, or a fresh evaluation (a miss)."""
        key = self._key(view)
        block = self.blocks.get(key)
        if block is None:
            block = self._evaluate_block(view)
            self._keep_missed(key, block)
        else:
            self.profile.cache_hits += 1
        return block

    def offer_block(self, view: BatchView, block: np.ndarray, seconds: float) -> None:
        """Take an offered block if its view's block is not kept, counted
        exactly as the :meth:`basis_block` miss it replaces: the profile's
        misses and ``basis`` row; kept only if resident.  A block already
        kept is left as it is, uncounted."""
        key = self._key(view)
        if key not in self.blocks:
            self._record_evaluation(view, seconds)
            self._keep_missed(key, block)

    @staticmethod
    def _key(view: BatchView) -> CacheKey:
        return (view.rows_hash, view.active_hash)

    def _keep_missed(self, key: CacheKey, block: np.ndarray) -> None:
        """Count a miss, and keep the block if its view is resident."""
        self.profile.cache_misses += 1
        if key in self._resident:
            self.blocks[key] = block
            self.profile.cache_peak_bytes += int(block.nbytes)


def resolve_backend(
    spec: Union[str, ExecutionBackend, None], builder: "MatrixBuilder"
) -> ExecutionBackend:
    """*spec* bound to *builder*: ``None`` or ``"numpy"`` is a fresh host
    engine, an :class:`ExecutionBackend` instance is itself."""
    if spec is None or spec == BatchedBackend.name:
        spec = BatchedBackend()
    elif not isinstance(spec, ExecutionBackend):
        raise BackendError(
            f"unknown execution backend {spec!r}; the one engine is 'numpy' "
            "(or pass an ExecutionBackend instance)"
        )
    return spec.bind(builder)
