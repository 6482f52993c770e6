"""Grid integration of operator matrices (Eq. 5's H and S, dipoles).

A :class:`MatrixBuilder` binds a basis set to an integration grid and
produces the density-independent matrices once (overlap, kinetic,
nuclear attraction, dipole) plus cheap re-integration of potential
matrices every SCF/CPSCF cycle — the computational pattern of the
paper's "H" phase, executed fused view by fused view.

All grid contractions dispatch through the builder's
:class:`~repro.backends.base.ExecutionBackend` (``numpy`` by default),
so the same driver code runs on the host block cache or the priced
device-kernel path — bit-exact across both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backends.sweep import ordered_sweep
from repro.basis.basis_set import BasisSet, build_basis
from repro.config import checked_screening_threshold
from repro.grids.atom_grid import IntegrationGrid, build_grid
from repro.grids.batching import GridBatch, attach_relevant_atoms, build_batches
from repro.grids.sparsity import BatchView, BatchViews, build_batch_views
from repro.utils.linalg import symmetrize
from repro.utils.scratch import scratch

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
    substrate cache and by the benchmarks to share across builders.  Deterministic in its inputs, so a shared
    substrate carries exactly the arrays a fresh build would.
    """
    basis = build_basis(structure)
    grid = build_grid(structure, grid_settings, with_partition=True)
    batches = attach_relevant_atoms(
        build_batches(grid), structure, basis.atom_cutoffs
    )
    return Substrate(basis=basis, grid=grid, batches=batches)


#: Rows per basis-evaluation call inside a fused view: the evaluator's
#: temporaries scale with rows x atoms x shells.  One builder of the
#: 32-atom chain through overlap() + kinetic() (OMP_NUM_THREADS=1, 2-core
#: Xeon VM): slabs of 64 / 256 / 1 024 / 2 048 rows peak at 64 / 68 / 78 /
#: 82 MB RSS and take 0.38-0.62 / 0.28-0.33 / 0.29-0.39 / 0.29-0.32 s of
#: kinetic(): past 256 memory grows and time does not move.  Slab
#: boundaries also set the order of kinetic's block sum, so changing
#: this changes T in its last bits.
_SLAB_ROWS: int = 256


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
        screening: a view carries the columns of its batches' relevant
        atoms, outside which chi is exactly zero there.  ``> 0`` masks
        out the columns whose screened reach misses a batch, and every
        layer below (backends, kinetic, reference paths) iterates those
        views.  NaN, ``inf`` or a negative value is a
        :class:`~repro.errors.SettingsError`.
    """

    def __init__(
        self,
        basis: BasisSet,
        grid: IntegrationGrid,
        batches: Optional[List[GridBatch]] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        screening_threshold: float = 0.0,
    ) -> None:
        self.screening_threshold = checked_screening_threshold(screening_threshold)
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
        # and profile view counters read them at bind time.
        #: The fused views every contraction of this builder iterates.
        self.views = build_batch_views(self.batches, basis, self.screening_threshold)
        #: Per threshold, one unfused view per batch (the reference seam).
        self._reference: Dict[float, List[BatchView]] = {}

        from repro.backends.registry import resolve_backend

        self.backend = resolve_backend(backend, self)

    @property
    def pattern(self) -> Optional[BatchViews]:
        """The views when screened, ``None`` when not (the benchmark
        harness reads ``pattern.stats``)."""
        return self.views if self.views.screened else None

    # ------------------------------------------------------------------
    # Basis tables
    # ------------------------------------------------------------------
    def evaluate_view(self, view: BatchView) -> np.ndarray:
        """One view's chi block, evaluated on the spot (never cached).

        Filled a slab of rows at a time so the evaluator's temporaries
        stay the size they have on a single batch; rows are independent,
        so the block is bitwise the concatenation of its batches' blocks,
        each member's padding set to ``+0.0``.
        """
        rows = view.point_indices
        block = np.empty((rows.size, view.cols.size))
        for lo in range(0, rows.size, _SLAB_ROWS):
            idx = rows[lo : lo + _SLAB_ROWS]
            block[lo : lo + idx.size] = self.basis.evaluate(
                self.grid.points[idx], atoms=view.atoms, cols=view.cols
            )
        view.zero_padding(block)
        return block

    def basis_values(self) -> np.ndarray:
        """chi_mu at every grid point, ``(n_points, n_basis)``: assembled
        from unscreened views on every call, never held — engines read
        blocks, not this table."""
        views = self.views
        if views.screened:
            views = build_batch_views(self.batches, self.basis)
        values = np.zeros((self.grid.n_points, self.basis.n_basis))
        for view in views:
            values[view.point_indices[:, None], view.cols] = self.evaluate_view(view)
        return values

    # ------------------------------------------------------------------
    # Density-independent matrices
    # ------------------------------------------------------------------
    def overlap(self) -> np.ndarray:
        """S_mu_nu = <chi_mu | chi_nu>."""
        return self.potential_matrix(np.ones(self.grid.n_points))

    def kinetic(self) -> np.ndarray:
        """T_mu_nu = (1/2) <grad chi_mu | grad chi_nu> (by parts).

        Each view evaluates values and gradients only for its atoms and
        columns, a slab of rows at a time (memory stays at 3 x slab rows
        x view columns), and adds its gradients' weighted Grams at the
        view's columns — the same locality rule and the same kernel as
        every other grid contraction, fed one contiguous gradient
        component at a time.  The views run as a two-core
        :func:`~repro.backends.sweep.ordered_sweep`: blocks are added to
        T in view order on the calling thread, which also offers each
        view's value block to the backend
        (:meth:`~repro.backends.base.ExecutionBackend.offer_block`) — the
        block :meth:`evaluate_view` would return, so a caching backend's
        first sweep after this one reads its cache instead of evaluating.
        """
        from repro.backends.base import weighted_gram

        w, points = self.grid.weights, self.grid.points
        t = np.zeros((self.basis.n_basis, self.basis.n_basis))

        def kernel(view: BatchView, _) -> Tuple[np.ndarray, np.ndarray, float]:
            rows, cols = view.point_indices, view.cols
            values = np.empty((rows.size, cols.size))
            block = np.zeros((cols.size, cols.size))
            seconds = 0.0
            for lo in range(0, rows.size, _SLAB_ROWS):
                idx = rows[lo : lo + _SLAB_ROWS]
                start = time.perf_counter()
                values[lo : lo + idx.size], grads = self.basis.evaluate_with_gradients(
                    points[idx], atoms=view.atoms, cols=cols
                )
                seconds += time.perf_counter() - start
                view.zero_padding(grads, lo)
                with scratch((idx.size, cols.size)) as work:
                    for k in range(3):
                        block += weighted_gram(grads[k], w[idx], work)
            view.zero_padding(values)
            return block, values, seconds

        def commit(view: BatchView, result: Tuple[np.ndarray, np.ndarray, float]) -> None:
            block, values, seconds = result
            view.scatter_add(t, block)
            self.backend.offer_block(view, values, seconds)

        views = self.views
        ordered_sweep(views, views.elements, lambda view: None, kernel, commit)
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
        """D^J_mu_nu = <chi_mu | r_J | chi_nu>, shape ``(3, n, n)``: one
        k = 3 H sweep, each slice the 1-D sweep of ``r_J`` bit for bit."""
        return self.potential_matrix(self.grid.points)

    # ------------------------------------------------------------------
    # Density-dependent matrices (rebuilt every cycle)
    # ------------------------------------------------------------------
    def potential_matrix(self, potential_values: np.ndarray) -> np.ndarray:
        """V_mu_nu = <chi_mu | v | chi_nu> for a pointwise potential."""
        return self.backend.potential_matrix(potential_values)

    # ------------------------------------------------------------------
    # Backend-free reference paths (the verification seam)
    # ------------------------------------------------------------------
    # These bypass the execution backend entirely: one batch at a time,
    # its basis block evaluated fresh and contracted with a plain matrix
    # product — no fusion, no folded triangle, no rank-k update — so the
    # invariant registry compares a backend's answers against an
    # independent derivation.  Honest backends agree with these to
    # summation-order noise (1e-13 of the array's scale; DESIGN §8).
    # When screening is on the references honor its mask by default (so
    # invariants stay tight against screened backends); ``screened=False``
    # drops it — that is the seam the ``screening_vs_dense`` invariant
    # compares against.  Each threshold's views are built on first use and
    # kept for the builder's life.
    def _reference_views(self, screened: bool) -> List[BatchView]:
        threshold = self.screening_threshold if screened else 0.0
        if threshold not in self._reference:
            self._reference[threshold] = [
                view
                for batch in self.batches
                for view in build_batch_views([batch], self.basis, threshold)
            ]
        return self._reference[threshold]

    def reference_density(
        self, density_matrix: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """Pointwise density via direct per-batch evaluation."""
        p = np.asarray(density_matrix, dtype=float)
        out = np.zeros(self.grid.n_points)
        for view in self._reference_views(screened):
            phi = self.evaluate_view(view)
            out[view.point_indices] = np.einsum("pi,pi->p", phi @ view.gather(p), phi)
        return out

    def reference_potential_matrix(
        self, potential_values: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """``<chi_mu | v | chi_nu>`` via direct per-batch evaluation."""
        wv = self.grid.weights * np.asarray(potential_values, dtype=float)
        acc = np.zeros((self.basis.n_basis, self.basis.n_basis))
        for view in self._reference_views(screened):
            phi = self.evaluate_view(view)
            view.scatter_add(acc, phi.T @ (phi * wv[view.point_indices][:, None]))
        return symmetrize(acc)
