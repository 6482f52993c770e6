"""Differential conformance: screening, and mappings x comm schemes."""

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.config import get_settings
from repro.errors import VerificationError
from repro.verify import (
    MutantBackend,
    capture_physics_trace,
    classify,
    first_divergent_phase,
    run_conformance,
)
from repro.verify.differential import (
    CLASS_THRESHOLDS,
    COMM_SCHEMES,
    DIVERGENT,
    MAPPING_STRATEGIES,
    _comm_scheme,
    _mapping_fn,
)


class TestClassify:
    def test_thresholds(self):
        assert classify(0.0) == "bit-exact"
        assert classify(1e-12) == "allclose"
        assert classify(1e-9) == "allclose"
        assert classify(1e-6) == "physics"
        assert classify(1e-3) == DIVERGENT
        assert classify(float("inf")) == DIVERGENT
        assert classify(float("nan")) == DIVERGENT

    def test_threshold_table_is_ordered(self):
        values = [t for _, t in CLASS_THRESHOLDS]
        assert values == sorted(values)

    def test_unknown_axis_names_rejected(self):
        with pytest.raises(VerificationError):
            _mapping_fn("round_robin")
        with pytest.raises(VerificationError):
            _comm_scheme("ring")


class TestFirstDivergentPhase:
    def _traces(self):
        a = {
            "integrals/overlap": np.eye(2),
            "scf/density": np.array([1.0, 2.0]),
            "polarizability": np.full((3, 3), 5.0),
        }
        b = {k: v.copy() for k, v in a.items()}
        return a, b

    def test_identical_traces_have_no_divergence(self):
        a, b = self._traces()
        assert first_divergent_phase(a, b) is None

    def test_earliest_phase_wins(self):
        a, b = self._traces()
        b["scf/density"] += 1.0
        b["polarizability"] += 10.0
        hit = first_divergent_phase(a, b)
        assert hit == ("scf/density", 1.0)

    def test_shape_mismatch_is_infinite(self):
        a, b = self._traces()
        b["scf/density"] = np.zeros(3)
        phase, diff = first_divergent_phase(a, b)
        assert phase == "scf/density" and diff == float("inf")

    def test_mismatched_keys_rejected(self):
        a, b = self._traces()
        del b["scf/density"]
        with pytest.raises(VerificationError):
            first_divergent_phase(a, b)


class TestConformanceMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_conformance(hydrogen_molecule(), level="minimal", n_ranks=4)

    def test_full_matrix_conforms(self, report):
        assert report.ok, report.render()

    def test_matrix_covers_every_axis(self, report):
        combo = [p for p in report.pairs if p.axis == "mapping x comm"]
        labels = {p.a for p in combo}
        # 2 mappings x 3 comm schemes: one engine, so no backend axis
        assert len(labels) == len(combo) == len(MAPPING_STRATEGIES) * len(COMM_SCHEMES) == 6
        assert {p.axis for p in report.pairs} == {"screening", "mapping x comm"}

    def test_render_mentions_verdict(self, report):
        text = report.render()
        assert "all configurations conform" in text
        assert "bit-exact" in text


class TestDivergenceAttribution:
    def test_mutated_backend_bisects_to_scf(self):
        """A seeded backend bug must be attributed to the first broken
        phase (SCF artifacts), not just 'the polarizability differs'."""
        settings = get_settings("minimal")
        structure = hydrogen_molecule()
        honest = capture_physics_trace(structure, settings)
        mutated = capture_physics_trace(
            structure, settings, backend=MutantBackend("stale_dm_snapshot")
        )
        hit = first_divergent_phase(honest, mutated)
        assert hit is not None
        phase, diff = hit
        assert phase.startswith("scf/")
        assert diff > CLASS_THRESHOLDS[-1][1]
