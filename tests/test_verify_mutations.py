"""Mutation smoke tests: every seeded bug must trip >= 1 invariant.

These are the teeth of the verification layer — if a mutation ever
stops being caught, the registry has lost the ability to detect that
whole class of porting bug.
"""

import pytest

from repro.atoms import hydrogen_molecule
from repro.basis.basis_set import build_basis
from repro.config import get_settings
from repro.dfpt.response import DFPTSolver
from repro.dft.hamiltonian import build_substrate
from repro.dft.scf import SCFDriver
from repro.errors import CPSCFConvergenceError, VerificationError
from repro.verify import (
    MUTATIONS,
    MutantBackend,
    Verifier,
    drop_radial_derivative,
    drop_relevant_atom,
    flip_xc_kernel_sign,
    shift_hartree_interval,
)
from repro.verify.mutations import BACKEND_MUTATIONS, SCREENING_MUTATIONS

#: Invariants expected to flag each backend mutation (at least these;
#: the assertion is ">= 1 of them", plus "no silent pass overall").
EXPECTED_CATCHERS = {
    "transposed_gather_map": {"density_consistency", "scf_stationarity"},
    "dropped_batch": {"density_consistency", "scf_stationarity"},
    "stale_dm_snapshot": {"density_consistency"},
    "off_by_one_batch_slice": {"density_consistency", "scf_stationarity"},
    "overscreened_block": {"screening_vs_dense"},
}


def _run_mutated(mutation):
    """Full pipeline under one backend mutation, at verify='full'.

    A mutated run may legitimately fail to converge in CPSCF (the wrong
    density makes the fixed point unreachable) — the invariants logged
    up to that point are still the detection record.  Screening-seam
    mutations only bite on the active-block path, so those runs enable
    block-sparse screening.
    """
    settings = get_settings("minimal")
    if mutation in SCREENING_MUTATIONS:
        from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

        settings = get_settings(
            "minimal", screening_threshold=DEFAULT_SCREENING_THRESHOLD
        )
    verifier = Verifier("full")
    driver = SCFDriver(
        hydrogen_molecule(),
        settings,
        backend=MutantBackend(mutation),
        verifier=verifier,
    )
    gs = driver.run()
    solver = DFPTSolver(gs, settings.cpscf, verifier=verifier)
    try:
        for j in range(3):
            solver.solve_direction(j)
    except CPSCFConvergenceError:
        pass
    return verifier.report


class TestBackendMutations:
    def test_every_mutation_is_named(self):
        assert set(BACKEND_MUTATIONS) | {
            "wrong_xc_sign",
            "shifted_hartree_interval",
            "dropped_radial_derivative",
            "dropped_relevant_atom",
        } == set(MUTATIONS)
        assert len(MUTATIONS) == 9

    def test_unknown_mutation_rejected(self):
        with pytest.raises(VerificationError):
            MutantBackend("swapped_loop_order")

    @pytest.mark.parametrize("mutation", BACKEND_MUTATIONS)
    def test_mutation_is_caught(self, mutation):
        report = _run_mutated(mutation)
        failed = set(report.failed_names)
        assert failed, f"{mutation} passed every invariant — no teeth"
        assert failed & EXPECTED_CATCHERS[mutation], (
            f"{mutation} caught by {sorted(failed)}, expected at least one "
            f"of {sorted(EXPECTED_CATCHERS[mutation])}"
        )

    def test_cheap_level_misses_stale_dm(self):
        """Documents the cost tiers: the stale-DM bug is self-consistent
        at the cheap (algebra-only) level and needs the full tier's
        independent re-derivation — exactly why 'full' exists."""
        settings = get_settings("minimal")
        verifier = Verifier("cheap")
        SCFDriver(
            hydrogen_molecule(),
            settings,
            backend=MutantBackend("stale_dm_snapshot"),
            verifier=verifier,
        ).run()
        assert "density_consistency" not in verifier.report.failed_names


class TestXCSignMutation:
    def test_wrong_xc_sign_breaks_cpscf_stationarity(self):
        settings = get_settings("minimal")
        verifier = Verifier("full")
        gs = SCFDriver(hydrogen_molecule(), settings, verifier=verifier).run()
        assert verifier.report.ok  # SCF itself is untouched
        solver = DFPTSolver(gs, settings.cpscf, verifier=verifier)
        flip_xc_kernel_sign(solver)
        try:
            for j in range(3):
                solver.solve_direction(j)
        except CPSCFConvergenceError:
            pass
        assert "cpscf_stationarity" in verifier.report.failed_names


class TestHartreePlanMutation:
    """``shifted_hartree_interval`` corrupts the solver's cached plan, so
    every Hartree call — the SCF's and the stationarity check's — agrees
    with every other; only the check that bypasses the plan sees it."""

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_only_plan_parity_kills_it(self, level):
        verifier = Verifier(level)
        driver = SCFDriver(
            hydrogen_molecule(), get_settings("minimal"), verifier=verifier
        )
        shift_hartree_interval(driver.solver)
        driver.run()
        expected = ["hartree_plan_parity"] if level == "full" else []
        assert verifier.report.failed_names == expected


class TestBasisGradientMutation:
    """``dropped_radial_derivative`` leaves chi, S and a symmetric (wrong)
    T behind, and the SCF converges self-consistently on them; only the
    check that differentiates chi itself sees it."""

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_only_gradient_consistency_kills_it(self, level):
        structure = hydrogen_molecule()
        basis = build_basis(structure)
        drop_radial_derivative(basis)
        verifier = Verifier(level)
        SCFDriver(
            structure, get_settings("minimal"), verifier=verifier, basis=basis
        ).run()
        expected = ["basis_gradient_consistency"] if level == "full" else []
        assert verifier.report.failed_names == expected


class TestRelevantAtomMutation:
    """``dropped_relevant_atom`` shrinks one batch's column set before the
    views are fused, so the engine, the references and the kinetic loop
    all drop the same nonzero columns and agree with each other (H2's
    energy moves by 0.058 Ha, self-consistently); only the check that
    evaluates every atom on a view's points sees what was dropped."""

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_only_compact_columns_kills_it(self, level):
        structure = hydrogen_molecule()
        settings = get_settings("minimal")
        substrate = build_substrate(structure, settings.grids)
        batches = drop_relevant_atom(substrate.batches, structure)
        assert len(batches[0].relevant_atoms) == 1
        assert batches[1:] == substrate.batches[1:]
        verifier = Verifier(level)
        gs = SCFDriver(
            structure, settings, verifier=verifier,
            basis=substrate.basis, grid=substrate.grid, batches=batches,
        ).run()
        solver = DFPTSolver(gs, settings.cpscf, verifier=verifier)
        for j in range(3):
            solver.solve_direction(j)
        expected = ["compact_columns_exact"] if level == "full" else []
        assert verifier.report.failed_names == expected
