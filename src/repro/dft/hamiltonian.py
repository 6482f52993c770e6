"""Grid integration of operator matrices (Eq. 5's H and S, dipoles).

A :class:`MatrixBuilder` binds a basis set to an integration grid and
produces the density-independent matrices once (overlap, kinetic,
nuclear attraction, dipole) plus cheap re-integration of potential
matrices every SCF/CPSCF cycle — the computational pattern of the
paper's "H" phase, executed batch by batch.

All grid contractions dispatch through the builder's
:class:`~repro.backends.base.ExecutionBackend` (``numpy`` by default),
so the same driver code runs on the host block cache or the priced
device-kernel path — bit-exact across both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.basis.basis_set import BasisSet, build_basis
from repro.grids.atom_grid import IntegrationGrid, build_grid
from repro.grids.batching import GridBatch, attach_relevant_atoms, build_batches
from repro.grids.sparsity import BatchView, build_batch_views, build_sparsity_pattern
from repro.utils.linalg import symmetrize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.atoms.structure import Structure
    from repro.backends.base import ExecutionBackend
    from repro.config import GridSettings


@dataclass
class Substrate:
    """One geometry's density-independent basis/grid/batch decomposition."""

    basis: BasisSet
    grid: IntegrationGrid
    batches: List[GridBatch]


def build_substrate(
    structure: "Structure", grid_settings: "GridSettings"
) -> Substrate:
    """Build the basis, partitioned grid and atom-tagged batches of a run.

    The one place the three are built together — by
    :class:`~repro.dft.scf.SCFDriver` for itself, by the fleet's
    substrate cache, the tuner's trial runner and the benchmarks to
    share across builders.  Deterministic in its inputs, so a shared
    substrate carries exactly the arrays a fresh build would.
    """
    basis = build_basis(structure)
    grid = build_grid(structure, grid_settings, with_partition=True)
    batches = attach_relevant_atoms(
        build_batches(grid), structure, basis.atom_cutoffs
    )
    return Substrate(basis=basis, grid=grid, batches=batches)


class MatrixBuilder:
    """Integrates basis-pair matrix elements over the grid.

    Parameters
    ----------
    basis:
        The structure's NAO basis.
    grid:
        Integration grid with partition weights available.
    batches:
        Optional pre-built batch list; built on demand otherwise.
    backend:
        Execution backend for the grid contractions: a registry name
        (``"numpy"``, ``"device"``), a configured
        :class:`~repro.backends.base.ExecutionBackend` instance, or
        ``None`` for the default host backend.
    screening_threshold:
        Batch-local basis-screening threshold
        (:mod:`repro.grids.sparsity`).  ``0.0`` (the default) disables
        screening entirely — no pattern is built and :attr:`views` is
        the all-column dense list, bitwise identical to the
        pre-screening pipeline.  ``> 0`` builds a
        :class:`~repro.grids.sparsity.SparsityPattern` once and every
        layer below (backends, kinetic, reference paths) iterates views
        that carry only active functions.
    """

    def __init__(
        self,
        basis: BasisSet,
        grid: IntegrationGrid,
        batches: Optional[List[GridBatch]] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        screening_threshold: float = 0.0,
    ) -> None:
        self.basis = basis
        self.grid = grid
        if grid.partition_weights is None:
            grid.compute_partition_weights()
        if batches is None:
            batches = build_batches(grid)
        if batches and not batches[0].relevant_atoms:
            batches = attach_relevant_atoms(batches, grid.structure, basis.atom_cutoffs)
        self.batches = batches

        # The views must exist before the backend binds: device staging
        # and profile fill counters read them at bind time.
        self.screening_threshold = float(screening_threshold)
        #: All-column views — what ``screened=False`` references iterate.
        self.dense_views = build_batch_views(self.batches, basis.n_basis)
        self.pattern = None
        #: The views every contraction of this builder iterates.
        self.views = self.dense_views
        if self.screening_threshold > 0.0:
            self.pattern = build_sparsity_pattern(
                basis, self.batches, self.screening_threshold
            )
            self.views = build_batch_views(
                self.batches, basis.n_basis, self.pattern
            )

        from repro.backends.registry import resolve_backend

        self.backend = resolve_backend(backend, self)

    # ------------------------------------------------------------------
    # Basis tables
    # ------------------------------------------------------------------
    def evaluate_view(self, view: BatchView) -> np.ndarray:
        """One view's chi block, evaluated on the spot (never cached)."""
        return self.basis.evaluate(
            self.grid.points[view.point_indices], atoms=view.atoms
        )[:, view.cols]

    def basis_values(self) -> np.ndarray:
        """chi_mu at every grid point, ``(n_points, n_basis)``: assembled
        from the dense views on every call, never held — engines read
        blocks, not this table."""
        values = np.zeros((self.grid.n_points, self.basis.n_basis))
        for view in self.dense_views:
            values[view.point_indices] = self.evaluate_view(view)
        return values

    # ------------------------------------------------------------------
    # Density-independent matrices
    # ------------------------------------------------------------------
    def overlap(self) -> np.ndarray:
        """S_mu_nu = <chi_mu | chi_nu>."""
        return self.potential_matrix(np.ones(self.grid.n_points))

    def kinetic(self) -> np.ndarray:
        """T_mu_nu = (1/2) <grad chi_mu | grad chi_nu> (by parts).

        Each view evaluates gradients only for its atoms and adds its
        block at ``view.pair`` — the same locality rule every other
        grid contraction follows.
        """
        w = self.grid.weights
        t = np.zeros((self.basis.n_basis, self.basis.n_basis))
        # Gradients are only needed here, once; integrate batch-wise to
        # bound memory at (batch points x n_cols x 3).
        for view in self.views:
            idx = view.point_indices
            wb = w[idx]
            _, grads = self.basis.evaluate_with_gradients(
                self.grid.points[idx], atoms=view.atoms
            )
            grads = grads[:, view.cols, :]
            for k in range(3):
                gk = grads[:, :, k]
                t[view.pair] += gk.T @ (gk * wb[:, None])
        return symmetrize(0.5 * t)

    def nuclear_attraction(self) -> np.ndarray:
        """V_mu_nu with v_ext(r) = -sum_a Z_a / |r - R_a|."""
        return self.potential_matrix(self.external_potential())

    def external_potential(self) -> np.ndarray:
        """v_ext sampled at every grid point."""
        v = np.zeros(self.grid.n_points)
        coords = self.grid.structure.coords
        charges = self.grid.structure.nuclear_charges
        for a in range(self.grid.structure.n_atoms):
            r = np.linalg.norm(self.grid.points - coords[a], axis=1)
            v -= charges[a] / np.maximum(r, 1e-12)
        return v

    def dipole_matrices(self) -> np.ndarray:
        """D^J_mu_nu = <chi_mu | r_J | chi_nu>, shape ``(3, n, n)``."""
        out = np.empty((3, self.basis.n_basis, self.basis.n_basis))
        for j in range(3):
            out[j] = self.potential_matrix(self.grid.points[:, j])
        return out

    # ------------------------------------------------------------------
    # Density-dependent matrices (rebuilt every cycle)
    # ------------------------------------------------------------------
    def potential_matrix(self, potential_values: np.ndarray) -> np.ndarray:
        """V_mu_nu = <chi_mu | v | chi_nu> for a pointwise potential."""
        return self.backend.potential_matrix(potential_values)

    # ------------------------------------------------------------------
    # Backend-free reference paths (the verification seam)
    # ------------------------------------------------------------------
    # These bypass the execution backend entirely: every batch's basis
    # block is evaluated fresh, so the invariant registry can compare a
    # backend's answers against an independent derivation.  Honest
    # backends are bit-exact with these (same batch order, same math).
    # When a screening pattern is active the references honor it by
    # default (so invariants stay bit-tight against screened backends);
    # ``screened=False`` iterates the dense views instead — that is the
    # seam the ``screening_vs_dense`` invariant compares against.
    def reference_density(
        self, density_matrix: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """Pointwise density via direct per-batch evaluation."""
        from repro.backends.base import density_block

        p = np.asarray(density_matrix, dtype=float)
        out = np.zeros(self.grid.n_points)
        for view in self.views if screened else self.dense_views:
            out[view.point_indices] = density_block(
                self.evaluate_view(view), p[view.pair]
            )
        return out

    def reference_potential_matrix(
        self, potential_values: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """``<chi_mu | v | chi_nu>`` via direct per-batch evaluation."""
        from repro.backends.base import potential_block

        wv = self.grid.weights * np.asarray(potential_values, dtype=float)
        acc = np.zeros((self.basis.n_basis, self.basis.n_basis))
        for view in self.views if screened else self.dense_views:
            acc[view.pair] += potential_block(
                self.evaluate_view(view), wv[view.point_indices]
            )
        return symmetrize(acc)
