"""The perf-regression gate: tolerance bands, baseline comparison, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ExperimentError
from repro.obs.bench import backend_emission
from repro.obs.regress import (
    Band,
    baseline_run_parameters,
    compare_reports,
    default_band,
    flatten,
    load_baseline,
)


class TestBands:
    def test_exact_band(self):
        band = Band("exact")
        assert band.allows(8, 8)
        assert not band.allows(8, 9)

    def test_slowdown_band_is_one_sided(self):
        band = Band("slowdown", 2.0)
        assert band.allows(baseline=1.0, fresh=0.1)  # faster always passes
        assert band.allows(baseline=1.0, fresh=2.9)
        assert not band.allows(baseline=1.0, fresh=3.1)

    def test_floor_band_is_one_sided(self):
        band = Band("floor", 3.0)
        assert band.allows(baseline=9.0, fresh=100.0)  # higher always passes
        assert band.allows(baseline=9.0, fresh=3.5)
        assert not band.allows(baseline=9.0, fresh=2.9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            Band("fuzzy").allows(1.0, 1.0)

    def test_default_band_policy(self):
        assert default_band("backends.warm.profile.phases.H.calls").kind == "exact"
        assert default_band("backends.cold.wall_seconds").kind == "slowdown"
        assert default_band("timings.screened_speedup_vs_dense").kind == "floor"
        assert default_band("model.modeled_seconds").kind == "relative"
        # Per-phase micro-times get a wider band than the aggregate wall.
        phase = default_band("backends.device.profile.phases.Sumup.seconds")
        wall = default_band("backends.device.wall_seconds")
        assert phase.kind == "slowdown" and phase.tol > wall.tol


class TestFlatten:
    def test_numeric_leaves_only(self):
        doc = {
            "a": {"b": 2, "label": "x"},
            "ok": True,  # bools are not measurements
            "wall": 0.5,
        }
        assert flatten(doc) == {"a.b": 2.0, "wall": 0.5}


class TestCompareReports:
    BASE = {
        "n_sweeps": 8,
        "backends": {
            "cold": {"wall_seconds": 1.0, "profile": {"calls": 16}},
            "warm": {"wall_seconds": 0.1, "wall_speedup": 10.0},
        },
    }

    def test_identical_reports_pass(self):
        report = compare_reports(json.loads(json.dumps(self.BASE)), self.BASE)
        assert report.ok
        assert "PASS" in report.render()

    def test_slowdown_beyond_tolerance_fails_naming_metric(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["warm"]["wall_seconds"] = 0.9  # 9x slower
        report = compare_reports(fresh, self.BASE)
        assert not report.ok
        offenders = [d.key for d in report.offenders]
        assert offenders == ["backends.warm.wall_seconds"]
        assert "backends.warm.wall_seconds" in report.render()
        assert "FAIL" in report.render()

    def test_in_band_slowdown_passes(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["warm"]["wall_seconds"] = 0.25  # 2.5x < 3x band
        assert compare_reports(fresh, self.BASE).ok

    def test_perturbed_work_counter_fails_exactly(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["cold"]["profile"]["calls"] = 17
        report = compare_reports(fresh, self.BASE)
        assert [d.key for d in report.offenders] == [
            "backends.cold.profile.calls"
        ]

    def test_vanished_metric_is_a_regression(self):
        fresh = json.loads(json.dumps(self.BASE))
        del fresh["backends"]["warm"]["wall_speedup"]
        report = compare_reports(fresh, self.BASE)
        assert [d.key for d in report.offenders] == [
            "backends.warm.wall_speedup"
        ]

    def test_new_metric_passes(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["device"] = {"wall_seconds": 0.01}
        assert compare_reports(fresh, self.BASE).ok

    def test_missing_baseline_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_baseline(tmp_path / "nope.json")

    def test_baseline_run_parameters(self):
        assert baseline_run_parameters({"level": "light", "n_sweeps": 8}) == (
            "light",
            8,
        )
        with pytest.raises(ExperimentError):
            baseline_run_parameters({"level": "light"})


@pytest.fixture(scope="module")
def emission():
    """One real (tiny) benchmark emission shared by the gate tests."""
    return backend_emission("minimal", 1)


class TestEmissionGate:
    def test_emission_carries_parameters_and_provenance(self, emission):
        assert emission["level"] == "minimal"
        assert emission["n_sweeps"] == 1
        assert set(emission["backends"]) == {"warm", "cold", "device"}
        assert emission["provenance"]["seed"] == 2023

    def test_emission_vs_itself_passes(self, emission):
        assert compare_reports(emission, emission).ok

    def test_injected_slowdown_fails_gate(self, emission):
        slow = json.loads(json.dumps(emission))
        slow["backends"]["cold"]["timings"]["wall_seconds"] *= 10.0
        report = compare_reports(slow, emission)
        assert not report.ok
        assert "backends.cold.timings.wall_seconds" in [
            d.key for d in report.offenders
        ]


def _relaxed_baseline(emission: dict) -> dict:
    """A timing-jitter-proof baseline: deterministic counters stay exact,
    wall bands get extra slack for a re-run on a loaded machine."""
    doc = json.loads(json.dumps(emission))
    for entry in doc["backends"].values():
        entry["timings"]["wall_seconds"] *= 4.0
        for stats in entry["timings"]["phases"].values():
            stats["seconds"] *= 4.0
    return doc


class TestBenchCheckCLI:
    def test_passes_against_committed_style_baseline(
        self, emission, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_backends.json"
        baseline.write_text(json.dumps(_relaxed_baseline(emission)))
        rc = cli_main(["bench-check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_perturbed_counter_exits_nonzero_naming_metric(
        self, emission, tmp_path, capsys
    ):
        doc = _relaxed_baseline(emission)
        doc["backends"]["warm"]["profile"]["phases"]["Sumup"]["calls"] += 1
        baseline = tmp_path / "BENCH_perturbed.json"
        baseline.write_text(json.dumps(doc))
        rc = cli_main(["bench-check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "backends.warm.profile.phases.Sumup.calls" in out
        assert "FAIL" in out
