"""Cubic-spline-count model for the response-potential phase (Figs. 4, 9(c)).

When a rank evaluates the response potential over its grid points, it
needs the splined partial potential of every atom whose radial mesh
(extent :data:`MULTIPOLE_MESH_RADIUS`) reaches one of its batches.
Adjacent batches share those atoms, so the locality mapping reuses one
spline construction across many batches; the scattered mapping
constructs it once per rank that touches the atom anywhere — far more
total work and far more per-rank splines.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.grids.batching import GridBatch, batch_arrays
from repro.mapping.strategies import BatchAssignment, rank_atom_csr
from repro.utils.neighbors import sphere_overlaps

#: Outer radius of the per-atom radial mesh on which partial Hartree
#: potentials are splined (matches grids.shells default r_outer).
MULTIPOLE_MESH_RADIUS: float = 10.0


def spline_counts_per_rank(
    assignment: BatchAssignment,
    batches: Sequence[GridBatch],
    structure: Structure,
    mesh_radius: float = MULTIPOLE_MESH_RADIUS,
) -> np.ndarray:
    """Cubic splines each rank constructs for the v^(1) evaluation.

    One spline per distinct atom whose mesh sphere intersects any of the
    rank's batch bounding spheres (reuse within a rank is free — the
    paper's Fig. 4(b) insight).
    """
    arrays = batch_arrays(batches)
    reach = sphere_overlaps(arrays.centroids, arrays.radii, structure.coords, mesh_radius)
    return np.diff(rank_atom_csr(assignment, *reach)[0])
