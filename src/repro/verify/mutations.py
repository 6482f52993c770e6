"""Deliberately seeded bugs — the mutation smoke tests' test-only hook.

Each named mutation reproduces a class of real porting bug the paper's
validation methodology (and this repo's invariant registry) must catch:

======================== ==============================================
``transposed_gather_map`` the batch's point rows arrive in reversed
                          (gather-transposed) order, misaligning basis
                          values with quadrature weights
``dropped_batch``         one batch's contribution silently vanishes
                          from every contraction
``stale_dm_snapshot``     the Sumup phase keeps using the first density
                          matrix it ever saw
``wrong_xc_sign``         the CPSCF response potential carries
                          ``-f_xc n^(1)`` instead of ``+f_xc n^(1)``
``off_by_one_batch_slice`` the batch's basis block is shifted by one
                          point row (first row lost, last duplicated)
``overscreened_block``    the screening mask wrongly drops every
                          function of one batch's first owner atom
``shifted_hartree_interval`` one atom's Hartree back-interpolation plan
                          looks every point up one radial interval low
``dropped_radial_derivative`` the stacked basis evaluator loses the
                          ``dg/dr * rhat`` term of grad chi
``dropped_relevant_atom`` one batch's ``relevant_atoms`` loses its
                          farthest atom before the views are fused
======================== ==============================================

The backend-level mutations are applied by running a driver with a
:class:`MutantBackend`; ``wrong_xc_sign`` lives in the CPSCF solver's
cached kernel and is applied to a live solver with
:func:`flip_xc_kernel_sign`; ``shifted_hartree_interval`` lives in the
multipole solver's cached plan and is applied to a live solver with
:func:`shift_hartree_interval`; ``dropped_radial_derivative`` lives in
the basis set's stacked species tables and is applied to a live basis
with :func:`drop_radial_derivative`; ``dropped_relevant_atom`` lives in
the batch list a driver is handed and is applied with
:func:`drop_relevant_atom`.  Nothing here is imported by production
code paths — it exists so tests can prove the checks have teeth.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from repro.backends.batched import BatchedBackend
from repro.errors import VerificationError
from repro.grids.sparsity import BatchView

#: Every seeded mutation and the bug class it models.
MUTATIONS = {
    "transposed_gather_map": "batch basis rows in reversed gather order",
    "dropped_batch": "the last grid batch contributes nothing",
    "stale_dm_snapshot": "Sumup reuses the first density matrix forever",
    "wrong_xc_sign": "CPSCF response potential uses -f_xc * n1",
    "off_by_one_batch_slice": "basis block shifted one point row",
    "overscreened_block": "screening drops one batch's first atom's functions",
    "shifted_hartree_interval": "one atom's Hartree plan interval index off by one",
    "dropped_radial_derivative": "grad chi without its dg/dr * rhat term",
    "dropped_relevant_atom": "one batch's farthest relevant atom is forgotten",
}

#: Mutations implemented as a broken execution backend.
BACKEND_MUTATIONS = (
    "transposed_gather_map",
    "dropped_batch",
    "stale_dm_snapshot",
    "off_by_one_batch_slice",
    "overscreened_block",
)

#: Backend mutations that only bite when block-sparse screening is on
#: (they corrupt *screened* views' blocks; a dense run has none).
SCREENING_MUTATIONS = ("overscreened_block",)


class MutantBackend(BatchedBackend):
    """The host engine with exactly one seeded bug.

    Pass an instance as the ``backend=`` argument of a driver under
    test.
    """

    name = "mutant"

    def __init__(self, mutation: str) -> None:
        if mutation not in BACKEND_MUTATIONS:
            raise VerificationError(
                f"unknown backend mutation {mutation!r}; "
                f"expected one of {BACKEND_MUTATIONS}"
            )
        super().__init__()
        self.mutation = mutation
        self._stale_dm = None

    def basis_block(self, view: BatchView) -> np.ndarray:
        """The honest block with each member batch's rows corrupted.

        The bugs are batch-level (a gather map, a slice bound, a lost
        batch), so they act on a fused view's member row ranges, not on
        the view as a whole.
        """
        block = super().basis_block(view).copy()  # the cached array stays honest
        builder = self._require_bound()
        for i, (batch, lo, hi) in enumerate(zip(view.batches, view.bounds, view.bounds[1:])):
            rows = block[lo:hi]
            if self.mutation == "transposed_gather_map":
                rows[:] = rows[::-1].copy()
            elif self.mutation == "off_by_one_batch_slice":
                rows[:-1] = rows[1:].copy()
            elif self.mutation == "dropped_batch":
                if batch == len(builder.batches) - 1:
                    rows[:] = 0.0
            elif (
                self.mutation == "overscreened_block"
                and batch == 0
                and builder.views.screened
            ):
                # The batch's own first atom: a merged view's first
                # column may be padding there, zero already.
                fn_atom = builder.basis.function_atoms[view.cols]
                first = fn_atom[np.delete(np.arange(view.cols.size), view.padding[i])].min()
                rows[:, fn_atom == first] = 0.0
        return block

    def density_on_grid(self, density_matrix) -> np.ndarray:
        if self.mutation != "stale_dm_snapshot":
            return super().density_on_grid(density_matrix)
        if self._stale_dm is None:  # an array or a Factored, as it came
            self._stale_dm = copy.deepcopy(density_matrix)
        stale = super().density_on_grid(self._stale_dm)
        # Stale data at the asked-for width: a k-wide call gets the first
        # density in each of its k columns.
        left = getattr(density_matrix, "left", None)
        return np.tile(stale[:, None], len(left)) if np.ndim(left) == 3 else stale


def flip_xc_kernel_sign(solver) -> None:
    """Apply ``wrong_xc_sign`` to a live :class:`~repro.dfpt.response.DFPTSolver`."""
    solver._fxc = -solver._fxc


def shift_hartree_interval(solver, atom: int = 0) -> None:
    """Apply ``shifted_hartree_interval`` to a live :class:`~repro.dft.hartree.MultipoleSolver`.

    Every run of *atom*'s plan not already on the first radial interval
    reads the spline tables one interval low; the weights are untouched.
    The solver stays self-consistent (every call goes through the same
    plan), so only a check that bypasses the plan can see it.
    """
    plan = solver._plans[atom] or solver._build_plan(atom, solver.grid.points)
    low = tuple((max(i - 1, 0), lo, hi) for i, lo, hi in plan.runs)
    solver._plans[atom] = replace(plan, runs=low)


def drop_radial_derivative(basis) -> None:
    """Apply ``dropped_radial_derivative`` to a live :class:`~repro.basis.basis_set.BasisSet`.

    Every species' stacked radial spline reports a zero derivative, so
    ``evaluate_with_gradients`` keeps only ``g * grad S_lm``.  Values are
    untouched and the kinetic matrix stays symmetric, so only a check
    that differentiates chi itself can see it.
    """
    for table in basis._species:
        spline = table.radial
        spline.value_and_derivative = lambda t, spline=spline: (
            spline(t),
            np.zeros(np.shape(t) + spline.y.shape[1:]),
        )


def drop_relevant_atom(batches, structure, batch: int = 0):
    """Apply ``dropped_relevant_atom``: a copy of *batches* in which one
    batch forgets the relevant atom farthest from its centroid.

    Every consumer — engine, references, kinetic — fuses views from the
    same list, so all of them drop that atom's columns on that batch
    consistently; only a check that evaluates *all* atoms can see it.
    """
    target = batches[batch]
    atoms = np.array(target.relevant_atoms)
    distance = np.linalg.norm(structure.coords[atoms] - target.centroid, axis=1)
    kept = tuple(int(a) for a in np.delete(atoms, int(np.argmax(distance))))
    out = list(batches)
    out[batch] = replace(target, relevant_atoms=kept)
    return out
