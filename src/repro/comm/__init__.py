"""Collective-communication schemes of Section 3.2.

Three ways to synthesize the per-rank partial ``rho_multipole`` rows:

* :class:`BaselineRowwiseAllreduce` — one AllReduce per row (the
  artifact's original behaviour),
* :class:`PackedAllreduce` — rows fused into packs bounded by the
  30 MB heuristic (Section 3.2.1),
* :class:`PackedHierarchicalAllreduce` — packs synthesized first inside
  each node through an MPI-SHM window, then across one leader per node
  (Section 3.2.2; requires shared-memory windows, hence HPC #2 only).

Every scheme *executes* on real per-rank numpy data (results are
asserted equal across schemes in the tests) and has one price,
``estimate``, at any scale: what Fig. 10 and the phase model read.
"""

from repro.comm.schemes import (
    ReductionReport,
    ReductionScheme,
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
    PACK_LIMIT_BYTES,
    rows_per_pack,
)

__all__ = [
    "ReductionReport",
    "ReductionScheme",
    "BaselineRowwiseAllreduce",
    "PackedAllreduce",
    "PackedHierarchicalAllreduce",
    "PACK_LIMIT_BYTES",
    "rows_per_pack",
]
