"""Task mapping: how batches of grid points land on MPI ranks (Section 3.1).

Two strategies — the *existing* least-loaded assignment and the paper's
*locality-enhancing* recursive bisection (Algorithm 1) — plus the
per-rank Hamiltonian memory model and cubic-spline-count model that
quantify why locality wins (Figs. 9(a) and 9(c)).
"""

from repro.mapping.strategies import (
    BatchAssignment,
    load_balancing_mapping,
    locality_enhancing_mapping,
)
from repro.mapping.memory_model import (
    HamiltonianMemoryModel,
    atom_cutoffs_light,
    atom_basis_counts,
)
from repro.mapping.spline_model import spline_counts_per_rank, MULTIPOLE_MESH_RADIUS

__all__ = [
    "BatchAssignment",
    "load_balancing_mapping",
    "locality_enhancing_mapping",
    "HamiltonianMemoryModel",
    "atom_cutoffs_light",
    "atom_basis_counts",
    "spline_counts_per_rank",
    "MULTIPOLE_MESH_RADIUS",
]
