"""The structure-wide integration grid (Fig. 2).

One radial-spherical point cloud per atom, concatenated into flat arrays
(positions, owning atom, shell index, quadrature weight).  Becke
partition weights are folded in on request — geometry-only consumers
(batching and the scale experiments) skip that cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.atoms.structure import Structure
from repro.config import GridSettings
from repro.errors import GridError
from repro.grids.angular import AngularRule, angular_rule
from repro.grids.partition import becke_weights
from repro.grids.shells import RadialShells, radial_shells_for_species


@dataclass
class IntegrationGrid:
    """Flat arrays describing every grid point of a structure.

    Attributes
    ----------
    structure:
        The owning molecular system.
    points:
        ``(n, 3)`` point coordinates (Bohr).
    atom_index:
        Owning atom of each point.
    shell_index:
        Radial shell (within the owning atom) of each point.
    quadrature_weights:
        ``w_rad * w_ang`` product weights (no partitioning).
    angular_weights:
        Pure angular weight of each point (sums to 4 pi per shell);
        needed by the multipole projection of the Hartree solver.
    shell_radii:
        Radial shell table per atom (list indexed by atom id) — the
        abscissae on which ``rho_multipole`` is tabulated.
    partition_weights:
        Becke weights; ``None`` until :meth:`compute_partition_weights`.
    """

    structure: Structure
    points: np.ndarray
    atom_index: np.ndarray
    shell_index: np.ndarray
    quadrature_weights: np.ndarray
    angular_weights: np.ndarray
    shell_radii: list
    settings: GridSettings
    partition_weights: Optional[np.ndarray] = field(default=None)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @cached_property
    def atom_slices(self) -> List[slice]:
        """Each atom's points as one slice of the flat arrays.

        The one place that knows the grid is atom-major: everything that
        walks it atom by atom (partition weights, the multipole solver)
        reads these slices, so the ordering is checked here, once.
        """
        if np.any(np.diff(self.atom_index) < 0):
            raise GridError("grid points are not atom-major ordered")
        bounds = np.searchsorted(
            self.atom_index, np.arange(self.structure.n_atoms + 1)
        )
        return [slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]

    @property
    def weights(self) -> np.ndarray:
        """Full integration weights (quadrature x partition).

        Requires partition weights; call :meth:`compute_partition_weights`
        first (physics paths do; geometry-only paths never need this).
        """
        if self.partition_weights is None:
            raise GridError(
                "partition weights not computed; call compute_partition_weights()"
            )
        return self.quadrature_weights * self.partition_weights

    def compute_partition_weights(self) -> np.ndarray:
        """Compute (once) and return the Becke partition weights."""
        if self.partition_weights is None:
            w = np.empty(self.n_points)
            for atom, sel in enumerate(self.atom_slices):
                w[sel] = becke_weights(
                    self.structure,
                    self.points[sel],
                    atom,
                    smoothing=self.settings.becke_smoothing,
                )
            self.partition_weights = w
        return self.partition_weights

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrate point-sampled values over all space."""
        values = np.asarray(values)
        if values.shape[0] != self.n_points:
            raise GridError(
                f"{values.shape[0]} samples for a {self.n_points}-point grid"
            )
        w = self.weights
        return np.tensordot(w, values, axes=(0, 0))

    def points_of_atom(self, atom: int) -> np.ndarray:
        """Indices of the points owned by one atom."""
        own = self.atom_slices[atom]
        return np.arange(own.start, own.stop)


def build_grid(
    structure: Structure,
    settings: GridSettings,
    with_partition: bool = False,
) -> IntegrationGrid:
    """Construct the atom-centered integration grid for a structure.

    Parameters
    ----------
    structure:
        The molecular system.
    settings:
        Grid-resolution knobs (radial base count, angular points, ...).
    with_partition:
        Compute Becke weights eagerly (physics runs need them; pure
        geometry/batching studies should leave this off).
    """
    rule: AngularRule = angular_rule(settings.n_angular)

    # One radial mesh per species (cached by z).
    shells_by_z: Dict[int, RadialShells] = {}
    pts_list = []
    atom_list = []
    shell_list = []
    wq_list = []
    wang_list = []
    shell_radii = []
    for atom, elem in enumerate(structure.elements):
        if elem.z not in shells_by_z:
            shells_by_z[elem.z] = radial_shells_for_species(
                elem.z,
                settings.n_radial_base,
                multiplier=settings.radial_multiplier,
            )
        shells = shells_by_z[elem.z]
        shell_radii.append(shells.r)
        # Outer product: (n_shells, n_ang, 3) then flattened.
        rel = shells.r[:, None, None] * rule.points[None, :, :]
        pts = structure.coords[atom] + rel.reshape(-1, 3)
        wq = (shells.weights[:, None] * rule.weights[None, :]).reshape(-1)
        n_local = pts.shape[0]
        pts_list.append(pts)
        wq_list.append(wq)
        wang_list.append(np.tile(rule.weights, shells.n))
        atom_list.append(np.full(n_local, atom, dtype=np.int64))
        shell_list.append(
            np.repeat(np.arange(shells.n, dtype=np.int64), rule.n_points)
        )

    grid = IntegrationGrid(
        structure=structure,
        points=np.concatenate(pts_list, axis=0),
        atom_index=np.concatenate(atom_list),
        shell_index=np.concatenate(shell_list),
        quadrature_weights=np.concatenate(wq_list),
        angular_weights=np.concatenate(wang_list),
        shell_radii=shell_radii,
        settings=settings,
    )
    if with_partition:
        grid.compute_partition_weights()
    return grid
