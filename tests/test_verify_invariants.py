"""The physics-invariant registry and its driver hooks (DESIGN §9.1)."""

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.config import get_settings
from repro.core import PerturbationSimulator
from repro.errors import VerificationError
from repro.utils.reports import format_verify_report
from repro.verify import Verifier
from repro.verify.invariants import (
    BIT_EXACT,
    PHASES,
    VERIFY_LEVELS,
    all_invariants,
    invariants_for,
)


class TestRegistry:
    def test_names_unique_and_phases_valid(self):
        invs = all_invariants()
        names = [i.name for i in invs]
        assert len(names) == len(set(names))
        assert {i.phase for i in invs} <= set(PHASES)
        assert len(invs) == 22
        assert sum(i.cost == "full" for i in invs) == 8

    def test_bit_exact_checks_have_zero_tolerance(self):
        for inv in all_invariants():
            if inv.tol_class == BIT_EXACT:
                assert inv.tolerance == 0.0

    def test_cheap_subset_of_full(self):
        for phase in PHASES:
            cheap = {i.name for i in invariants_for(phase, "cheap")}
            full = {i.name for i in invariants_for(phase, "full")}
            assert cheap <= full
        assert invariants_for("scf", "off") == ()

    def test_full_strictly_larger_somewhere(self):
        n_cheap = sum(len(invariants_for(p, "cheap")) for p in PHASES)
        n_full = sum(len(invariants_for(p, "full")) for p in PHASES)
        assert n_full > n_cheap

    def test_unknown_level_rejected(self):
        with pytest.raises(VerificationError):
            invariants_for("scf", "paranoid")


class TestVerifier:
    def test_from_level_off_is_none(self):
        assert Verifier.from_level("off") is None
        for level in ("cheap", "full"):
            v = Verifier.from_level(level)
            assert v is not None and v.level == level

    def test_bad_level_rejected(self):
        with pytest.raises(VerificationError):
            Verifier("off")
        with pytest.raises(VerificationError):
            Verifier.from_level("nope")

    def test_missing_context_is_a_failure_not_a_crash(self):
        v = Verifier("cheap")
        results = v.run_phase("integrals")  # no overlap/dipoles supplied
        assert results and all(not r.passed for r in results)
        assert all(r.residual == float("inf") for r in results)
        assert any("missing" in r.detail for r in results)


class TestHonestRun:
    """An unmutated pipeline must pass every invariant at every level."""

    @pytest.fixture(scope="class")
    def full_result(self):
        settings = get_settings("minimal", verify="full")
        return PerturbationSimulator(hydrogen_molecule(), settings).run_physics()

    def test_off_produces_no_report(self):
        settings = get_settings("minimal")  # verify defaults to "off"
        result = PerturbationSimulator(hydrogen_molecule(), settings).run_physics()
        assert result.verify_report is None

    def test_full_run_all_checks_pass(self, full_result):
        report = full_result.verify_report
        assert report is not None and report.level == "full"
        assert report.ok, report.render()
        # Every phase boundary actually fired.
        assert {r.phase for r in report.results} == set(PHASES)
        # Three CPSCF directions each re-ran the cpscf checks.
        n_cpscf = len(invariants_for("cpscf", "full"))
        assert sum(r.phase == "cpscf" for r in report.results) == 3 * n_cpscf

    def test_cheap_run_skips_full_checks(self):
        settings = get_settings("minimal", verify="cheap")
        result = PerturbationSimulator(hydrogen_molecule(), settings).run_physics()
        report = result.verify_report
        assert report.ok, report.render()
        names = {r.name for r in report.results}
        assert "scf_stationarity" not in names
        assert "density_consistency" not in names
        assert "hartree_plan_parity" not in names
        assert "dm_idempotent" in names

    def test_report_renders_with_summary(self, full_result):
        text = format_verify_report(full_result.verify_report)
        n = len(full_result.verify_report.results)
        assert f"{n}/{n} checks passed" in text
        assert "dm_trace" in text and "bit-exact" in text

    def test_physical_residuals_are_small(self, full_result):
        by_name = {}
        for r in full_result.verify_report.results:
            by_name.setdefault(r.name, r)
        assert by_name["overlap_hermitian"].residual == 0.0
        assert by_name["charge_integration"].residual < 1e-10
        assert by_name["hartree_plan_parity"].residual < 1e-13
        assert by_name["polarizability_symmetric"].residual < 1e-10


class TestDetectsBrokenInputs:
    """Handing a corrupted quantity to the right phase flags the check."""

    def test_asymmetric_overlap_fails_hermiticity(self):
        v = Verifier("cheap")
        s = np.eye(4)
        s[0, 1] = 1e-9  # asymmetric by one ULP-scale element
        v.run_phase("integrals", overlap=s, dipoles=np.zeros((3, 4, 4)))
        assert "overlap_hermitian" in v.report.failed_names

    def test_collapsed_basis_fails_positive_definiteness(self):
        v = Verifier("cheap")
        s = np.ones((3, 3))  # rank-1: two zero eigenvalues... and symmetric
        s = s - 0.5 * np.eye(3)  # make it indefinite
        v.run_phase("integrals", overlap=s, dipoles=np.zeros((3, 3, 3)))
        assert "overlap_positive_definite" in v.report.failed_names

    def test_asymmetric_alpha_fails_symmetry(self):
        v = Verifier("cheap")
        alpha = np.diag([3.0, 3.0, 4.0])
        alpha[0, 1] = 0.1
        v.run_phase("polarizability", polarizability=alpha)
        assert "polarizability_symmetric" in v.report.failed_names
