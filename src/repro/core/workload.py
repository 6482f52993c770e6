"""Workload descriptors: everything the scale models need from a system.

For small systems the real integration grid and batches are used; the
200 000-atom runs would need ~10^8 materialized grid points, so
:func:`synthetic_batches` builds *summary* batches — correct point
counts, centroids and relevant-atom sets derived from the real geometry
and the real per-species grid dimensions — which is all the mapping,
memory and phase models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.atoms.structure import Structure
from repro.basis.ylm import n_lm
from repro.config import GridSettings, RunSettings, get_settings
from repro.grids.angular import angular_rule
from repro.grids.batching import (
    SUMMARY_BATCH_RADIUS,
    BatchArrays,
    SummaryBatches,
    fragments_per_atom,
    summary_overlaps,
)
from repro.grids.shells import radial_shells_for_species
from repro.mapping.memory_model import atom_basis_counts, atom_cutoffs_light


@dataclass(frozen=True)
class Workload:
    """Size summary of one simulation configuration.

    All quantities are derived from the actual structure and settings —
    no free parameters — so the scale models are anchored to the same
    geometry the physics engine integrates over.
    """

    structure: Structure
    settings: RunSettings
    n_atoms: int
    n_basis: int
    n_grid_points: int
    points_per_atom: np.ndarray  # (n_atoms,)
    rho_multipole_rows: int  # one AllReduce row per atom
    rho_multipole_row_bytes: int  # shells x lm x 8 (max over species)
    spline_knots: int  # radial shells (max over species)


def _points_per_atom(structure: Structure, grids: GridSettings) -> np.ndarray:
    rule = angular_rule(grids.n_angular)
    cache: Dict[int, int] = {}
    out = np.empty(structure.n_atoms, dtype=np.int64)
    for i, elem in enumerate(structure.elements):
        if elem.z not in cache:
            shells = radial_shells_for_species(
                elem.z, grids.n_radial_base, multiplier=grids.radial_multiplier
            )
            cache[elem.z] = shells.n * rule.n_points
        out[i] = cache[elem.z]
    return out


def build_workload(
    structure: Structure, settings: Optional[RunSettings] = None
) -> Workload:
    """Summarize a structure + settings into model inputs."""
    settings = settings or get_settings("light")
    ppa = _points_per_atom(structure, settings.grids)
    shells_max = 0
    for elem in set(structure.elements):
        shells = radial_shells_for_species(
            elem.z,
            settings.grids.n_radial_base,
            multiplier=settings.grids.radial_multiplier,
        )
        shells_max = max(shells_max, shells.n)
    row_bytes = shells_max * n_lm(settings.l_max_hartree) * 8
    return Workload(
        structure=structure,
        settings=settings,
        n_atoms=structure.n_atoms,
        n_basis=int(atom_basis_counts(structure).sum()),
        n_grid_points=int(ppa.sum()),
        points_per_atom=ppa,
        rho_multipole_rows=structure.n_atoms,
        rho_multipole_row_bytes=row_bytes,
        spline_knots=shells_max,
    )


def synthetic_batches(
    workload: Workload,
    target_points: Optional[int] = None,
) -> SummaryBatches:
    """Summary batches for systems too large to materialize the grid.

    Atoms are visited in spatially sorted order (widest bounding-box
    dimension); consecutive atoms' point masses are cut into batches of
    ~``target_points``.  Centroids are atom positions, radii the grid
    extent — the quantities the mapping strategies and memory models
    read.  Relevant-atom sets follow the same cutoff logic as the real
    batches.  The batches stay :class:`BatchArrays`; a :class:`GridBatch`
    is built only for a batch that is read.
    """
    structure = workload.structure
    if target_points is None:
        target_points = workload.settings.grids.batch_target_points

    # Every atom's point mass exceeds the batch target at realistic
    # settings (a light H atom alone carries >1000 points), so the real
    # cut planes always slice *within* atomic grids.  Summary batches
    # are therefore per-atom fragments: atom a contributes
    # ceil(mass_a / target) batches located at the atom, never mixing
    # atoms (which would fabricate spatially extended batches).
    ppa = workload.points_per_atom.astype(np.int64)
    n_frag = fragments_per_atom(ppa, target_points)

    # Emit fragments in spatial order along the widest dimension so
    # batch ids correlate with space (as the real batch stream does).
    coords = structure.coords
    lo, hi = structure.bounding_box()
    dim = int(np.argmax(hi - lo))
    order = np.argsort(coords[:, dim], kind="stable")

    # Atom a's k-th fragment: base_a points, one more for the first mass_a mod n_frag_a.
    frags = n_frag[order]
    atom_of = np.repeat(order, frags)
    k = np.arange(atom_of.shape[0]) - np.repeat(np.cumsum(frags) - frags, frags)
    base = ppa // n_frag
    points = base[atom_of] + (k < (ppa % n_frag)[atom_of])

    # Every fragment sits on its atom with the same envelope: overlaps are
    # found once per atom, and each fragment reads its atom's row.
    indptr, indices = summary_overlaps(coords, atom_cutoffs_light(structure))
    radii = np.full(atom_of.shape[0], SUMMARY_BATCH_RADIUS)
    return SummaryBatches(
        BatchArrays(points, coords[atom_of], radii, atom_of, indptr, indices), atom_of
    )
