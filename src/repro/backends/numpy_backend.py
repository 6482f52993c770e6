"""The reference backend: the full-grid cached basis table.

This is the seed repo's behaviour made explicit: under the builder's
cache limit the whole ``(n_points, n_basis)`` chi table is materialized
once and every phase operation slices per-batch rows out of it —
O(grid) memory, zero re-evaluation.  Over the limit the old code
rebuilt the full table on *every* call; this backend instead falls back
to direct per-batch evaluation (no giant allocation, but still one
evaluation per call — the ``batched`` backend's LRU cache is the real
fix for that regime).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.registry import register_backend
from repro.grids.sparsity import BatchView


@register_backend("numpy")
class NumpyBackend(ExecutionBackend):
    """Full-grid table backend (the bit-exact reference)."""

    def basis_block(self, view: BatchView) -> np.ndarray:
        builder = self._require_bound()
        if builder.table_cache_enabled:
            # Rows were written by exactly the same per-batch evaluation
            # this slice replays, so the values are bitwise identical to
            # a fresh evaluation — the parity anchor for all backends.
            # Cached rows are *sliced* by the view's columns, never
            # re-evaluated, so table caching and screening compose: the
            # cache hit survives, only the columns shrink.
            return builder.basis_values()[view.point_indices][:, view.cols]
        return self._evaluate_block(view)
