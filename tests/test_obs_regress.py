"""The perf-regression gate: tolerance bands, baseline comparison, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ExperimentError
from repro.obs.bench import backend_emission, baseline_run_parameters
from repro.obs.regress import (
    Band,
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

    def test_relative_band_is_two_sided(self):
        band = Band("relative", 1e-9)
        assert band.allows(baseline=1.0, fresh=1.0 + 1e-12)
        assert not band.allows(baseline=1.0, fresh=1.01)
        assert not band.allows(baseline=1.0, fresh=0.99)  # "faster" fails too

    def test_unknown_kind_rejected(self):
        # ...the one-sided wall bands included: they went with the clocks.
        for kind in ("fuzzy", "slowdown", "floor"):
            with pytest.raises(ExperimentError):
                Band(kind, 2.0).allows(1.0, 1.0)

    def test_default_band_policy(self):
        assert default_band("backends.warm.profile.phases.H.calls").kind == "exact"
        assert default_band("model.modeled_seconds") == Band("relative", 1e-9)
        # A ratio of modeled seconds is as deterministic as its terms.
        assert default_band("model.molecules_per_second_speedup") == Band(
            "relative", 1e-9
        )
        assert default_band("diff.density_max_diff").kind == "ignore"
        assert {
            default_band(key).kind
            for key in ("n_points", "cache.hits", "launches.fused", "x.seconds")
        } == {"exact"}


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
            "cold": {"modeled_seconds": 1.0, "profile": {"calls": 16}},
            "warm": {"modeled_seconds": 0.1, "model_speedup": 10.0},
        },
    }

    def test_identical_reports_pass(self):
        report = compare_reports(json.loads(json.dumps(self.BASE)), self.BASE)
        assert report.ok
        assert "PASS" in report.render()

    def test_slowdown_beyond_tolerance_fails_naming_metric(self):
        """A *modeled* slowdown: 1 % where the band is 1e-9 (and where
        the deleted wall band let 3x through)."""
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["warm"]["modeled_seconds"] = 0.101
        report = compare_reports(fresh, self.BASE)
        assert not report.ok
        offenders = [d.key for d in report.offenders]
        assert offenders == ["backends.warm.modeled_seconds"]
        assert "backends.warm.modeled_seconds" in report.render()
        assert "FAIL" in report.render()

    def test_in_band_slowdown_passes(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["warm"]["modeled_seconds"] = 0.1 * (1.0 + 1e-12)
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
        del fresh["backends"]["warm"]["model_speedup"]
        report = compare_reports(fresh, self.BASE)
        assert [d.key for d in report.offenders] == [
            "backends.warm.model_speedup"
        ]

    def test_new_metric_passes(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["backends"]["device"] = {"modeled_seconds": 0.01}
        assert compare_reports(fresh, self.BASE).ok

    def test_missing_baseline_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_baseline(tmp_path / "nope.json")

    def test_baseline_run_parameters(self):
        assert baseline_run_parameters({"level": "light", "n_sweeps": 8}) == (
            "backends",
            {"level": "light", "n_sweeps": 8},
        )
        with pytest.raises(ExperimentError, match="level, n_sweeps"):
            baseline_run_parameters({"level": "light"})
        kind, parameters = baseline_run_parameters(
            {"benchmark": "sparse", "n_units": "4", "n_sweeps": 2,
             "threshold": 1, "level": "minimal"}
        )
        assert (kind, parameters) == ("sparse", {
            "n_units": 4, "n_sweeps": 2, "threshold": 1.0, "level": "minimal",
        })
        with pytest.raises(ExperimentError, match="unknown benchmark kind 'slo'"):
            baseline_run_parameters({"benchmark": "slo", "seed": 7, "window": 4})


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
        """The device row's modeled seconds, 1 % slower."""
        slow = json.loads(json.dumps(emission))
        slow["backends"]["device"]["profile"]["device"]["modeled_seconds"] *= 1.01
        report = compare_reports(slow, emission)
        assert [d.key for d in report.offenders] == [
            "backends.device.profile.device.modeled_seconds"
        ]


class TestBenchCheckCLI:
    def test_passes_against_committed_style_baseline(
        self, emission, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_backends.json"
        baseline.write_text(json.dumps(emission))
        rc = cli_main(["bench-check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_perturbed_counter_exits_nonzero_naming_metric(
        self, emission, tmp_path, capsys
    ):
        doc = json.loads(json.dumps(emission))
        doc["backends"]["warm"]["profile"]["phases"]["Sumup"]["calls"] += 1
        baseline = tmp_path / "BENCH_perturbed.json"
        baseline.write_text(json.dumps(doc))
        rc = cli_main(["bench-check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "backends.warm.profile.phases.Sumup.calls" in out
        assert "FAIL" in out
