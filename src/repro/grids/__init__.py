"""Discretized 3-D integration grids (Fig. 2 of the paper).

Non-uniform radial-spherical grids centred on each nucleus, Becke
partition-of-unity weights, and the grid-adapted cut-plane batching that
groups points into the 100-300-point batches the task-mapping strategies
distribute over MPI ranks.
"""

from repro.grids.angular import AngularRule, angular_rule, AVAILABLE_LEBEDEV
from repro.grids.shells import RadialShells, radial_shells_for_species
from repro.grids.partition import becke_weights
from repro.grids.atom_grid import IntegrationGrid, build_grid
from repro.grids.batching import (
    GridBatch,
    build_batches,
    cut_plane_partition,
    attach_relevant_atoms,
)
from repro.grids.sparsity import BatchViews, SparsityStats, build_batch_views

__all__ = [
    "AngularRule",
    "angular_rule",
    "AVAILABLE_LEBEDEV",
    "RadialShells",
    "radial_shells_for_species",
    "becke_weights",
    "IntegrationGrid",
    "build_grid",
    "GridBatch",
    "build_batches",
    "cut_plane_partition",
    "attach_relevant_atoms",
    "BatchViews",
    "SparsityStats",
    "build_batch_views",
]
