"""Chrome trace-event export: round-trip validity, track mapping, CLI."""

import json
from collections import defaultdict

from repro.cli import main as cli_main
from repro.obs import Tracer, chrome_trace, write_chrome_trace


def _make_tracer() -> Tracer:
    t = Tracer()
    with t.span("density", category="phase"):
        with t.span("Sumup", category="backend", rank=0):
            pass
    with t.span("allreduce", category="comm", rank=1):
        pass
    return t


class TestChromeTrace:
    def test_document_shape_and_round_trip(self, tmp_path):
        t = _make_tracer()
        path = write_chrome_trace(
            tmp_path / "trace.json", t.spans, metadata={"commit": "abc"}
        )
        doc = json.loads(path.read_text())  # must be valid JSON
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"commit": "abc"}
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert names == {"density", "Sumup", "allreduce"}

    def test_timestamps_non_negative_and_monotonic_per_track(self):
        doc = chrome_trace(_make_tracer().spans)
        per_track = defaultdict(list)
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            assert e["ts"] >= 0.0
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            per_track[(e["pid"], e["tid"])].append(e["ts"])
        for ts in per_track.values():
            assert ts == sorted(ts)

    def test_rank_attribute_maps_to_tid(self):
        doc = chrome_trace(_make_tracer().spans)
        events = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] not in ("M",)
        }
        assert events["density"]["tid"] == 0  # no rank attr -> rank 0
        assert events["allreduce"]["tid"] == 1
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"rank 0", "rank 1"}


class TestTraceCLI:
    def test_repro_trace_emits_consistent_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "physics",
                "--molecule", "h2",
                "--level", "minimal",
                "--trace", str(trace_path),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "open in Perfetto" in out

        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
        # Driver phases and backend/comm instrumentation all present.
        assert {"density", "hamiltonian", "Sumup", "H"} <= names
        assert doc["otherData"]["commit"]  # provenance rides along

        report = json.loads(report_path.read_text())
        # Acceptance criterion: phase spans sum to within 5% of the
        # reported per-phase wall time.
        spans_wall = report["trace"]["phase_wall_seconds"]
        reported = report["wall_seconds"]
        assert reported > 0.0
        assert abs(spans_wall - reported) / reported < 0.05

    def test_a_run_that_does_not_converge_leaves_its_evidence(
        self, tmp_path, capsys, monkeypatch
    ):
        """Two SCF cycles cannot converge H2: the run still exits 2, and
        the trace holds the spans recorded so far, the report the error
        with one residual and energy per cycle."""
        import dataclasses

        import repro.cli

        real = repro.cli.get_settings

        def two_cycles(*args, **kwargs):
            settings = real(*args, **kwargs)
            scf = dataclasses.replace(settings.scf, max_iterations=2)
            return dataclasses.replace(settings, scf=scf)

        monkeypatch.setattr(repro.cli, "get_settings", two_cycles)
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "physics", "--molecule", "h2", "--level", "minimal",
                "--trace", str(trace_path), "--report", str(report_path),
            ]
        )
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err

        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert {"density", "hamiltonian", "Sumup", "H"} <= names
        error = json.loads(report_path.read_text())["extra"]["error"]
        assert error["type"] == "SCFConvergenceError"
        assert error["iterations"] == 2 and error["residual"] > 0.0
        history = error["history"]
        assert len(history) == 2 and history[-1]["residual"] == error["residual"]
        assert all(set(cycle) == {"residual", "energy"} for cycle in history)
        assert "did not converge" in error["message"]
