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
    t.event("cycle_fault", category="fault", rank=1, site="scf[2]")
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
        assert names == {"density", "Sumup", "allreduce", "cycle_fault"}

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

    def test_instant_events_use_instant_phase(self):
        doc = chrome_trace(_make_tracer().spans)
        fault = next(e for e in doc["traceEvents"] if e["name"] == "cycle_fault")
        assert fault["ph"] == "i" and fault["s"] == "t"
        assert fault["args"]["site"] == "scf[2]"


class TestTraceCLI:
    def test_repro_trace_emits_consistent_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "trace",
                "--molecule", "h2",
                "--level", "minimal",
                "--out", str(trace_path),
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
