"""The screening seam's verification story, end to end.

A screened H2O run must pass the *entire* invariant registry at the
full tier — including the new ``screening_vs_dense`` check that
compares the screened grid density against the fully dense reference
derivation — and must still match the committed dense golden record
within its tagged tolerances.  The screening conformance axis pins the
two contractual rows: threshold ``0.0`` is bit-exact with dense, the
default threshold stays within tolerance.
"""

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule, water
from repro.config import get_settings
from repro.dfpt.response import DFPTSolver
from repro.dft.scf import SCFDriver
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.verify import (
    Verifier,
    all_invariants,
    compare_to_golden,
    screening_conformance,
)
from repro.verify.golden import record_from_run


@pytest.fixture(scope="module")
def screened_water_run():
    """One fully verified screened H2O pipeline, shared by the module."""
    settings = get_settings(
        "minimal", screening_threshold=DEFAULT_SCREENING_THRESHOLD
    )
    verifier = Verifier("full")
    driver = SCFDriver(water(), settings, verifier=verifier)
    gs = driver.run()
    solver = DFPTSolver(gs, settings.cpscf, verifier=verifier)
    alpha = np.empty((3, 3))
    for j in range(3):
        alpha[:, j] = solver.solve_direction(j).polarizability_column(
            gs.dipoles
        )
    verifier.run_phase("polarizability", polarizability=alpha)
    return driver, gs, alpha, verifier


class TestScreenedWaterInvariants:
    def test_pattern_is_actually_active(self, screened_water_run):
        driver, _, _, _ = screened_water_run
        assert driver.builder.views.screened
        assert driver.builder.screening_threshold == (
            DEFAULT_SCREENING_THRESHOLD
        )

    def test_every_invariant_passes(self, screened_water_run):
        _, _, _, verifier = screened_water_run
        report = verifier.report
        assert report.ok, report.render()

    def test_whole_registry_was_exercised(self, screened_water_run):
        _, _, _, verifier = screened_water_run
        checked = {r.name for r in verifier.report.results}
        assert checked == {inv.name for inv in all_invariants()}

    def test_screening_vs_dense_ran_and_is_tight(self, screened_water_run):
        _, _, _, verifier = screened_water_run
        results = [
            r
            for r in verifier.report.results
            if r.name == "screening_vs_dense"
        ]
        assert results, "screening_vs_dense never ran"
        for r in results:
            assert r.passed
            assert r.residual <= 5e-5

    def test_screened_run_matches_dense_golden(self, screened_water_run):
        driver, gs, alpha, _ = screened_water_run
        record = record_from_run(gs, alpha, driver.n_electrons)
        report = compare_to_golden("water", record)
        assert report.ok, report.render()


class TestScreeningVsDenseOnDenseRun:
    def test_invariant_is_trivially_green_without_a_pattern(self):
        settings = get_settings("minimal")
        verifier = Verifier("full")
        SCFDriver(hydrogen_molecule(), settings, verifier=verifier).run()
        results = [
            r
            for r in verifier.report.results
            if r.name == "screening_vs_dense"
        ]
        assert results and all(r.passed for r in results)
        assert all(r.residual == 0.0 for r in results)


class TestScreeningConformanceAxis:
    @pytest.fixture(scope="class")
    def pairs(self):
        return screening_conformance(
            hydrogen_molecule(), get_settings("minimal")
        )

    def test_axis_has_the_two_contract_rows(self, pairs):
        assert [p.axis for p in pairs] == ["screening", "screening"]
        assert [p.b for p in pairs] == ["screened @ 0", "screened @ 1e-06"]

    def test_threshold_zero_is_bit_exact(self, pairs):
        assert pairs[0].classification == "bit-exact"
        assert pairs[0].max_abs_diff == 0.0

    def test_default_threshold_conforms(self, pairs):
        assert pairs[1].ok, pairs[1]
        assert pairs[1].first_divergent_phase is None
