"""The observability layer: tracer, ambient context, metrics, RunReport."""

import json

import pytest

from repro.atoms import hydrogen_molecule
from repro.config import get_settings
from repro.dft import SCFDriver
from repro.obs import (
    MetricsRegistry,
    RunReport,
    Tracer,
    activate,
    current_context,
    current_tracer,
    obs_counter,
    obs_event,
    obs_span,
    trace_context,
)


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        t = Tracer()
        with t.span("Sumup", category="backend", cycle=2) as sp:
            pass
        assert t.spans == [sp]
        assert sp.name == "Sumup"
        assert sp.category == "backend"
        assert sp.attrs == {"cycle": 2}
        assert sp.end >= sp.start >= 0.0

    def test_ambient_context_merges_into_spans(self):
        t = Tracer()
        with activate(t):
            with trace_context(backend="numpy", cycle=1):
                with trace_context(cycle=2):  # inner wins
                    with obs_span("H"):
                        pass
                obs_event("worker_crash", site="worker:w0[1]")
        assert t.spans[0].attrs == {"backend": "numpy", "cycle": 2}
        fault = t.spans[1]
        assert fault.instant and fault.duration == 0.0
        assert fault.attrs == {"backend": "numpy", "cycle": 1, "site": "worker:w0[1]"}

    def test_context_restored_after_block(self):
        with trace_context(cycle=1):
            pass
        assert current_context() == {}

    def test_helpers_are_noops_without_tracer(self):
        assert current_tracer() is None
        with obs_span("Rho") as sp:
            assert sp is None
        assert obs_event("fault") is None
        obs_counter("bytes", 10)  # must not raise

    def test_activate_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_phase_wall_sums_only_requested_category(self):
        t = Tracer()
        with t.span("density", category="phase"):
            pass
        with t.span("allreduce", category="comm"):
            pass
        assert t.phase_wall("phase") == sum(
            s.duration for s in t.spans_of("phase")
        )
        assert len(t.spans_of("comm")) == 1


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        reg.counter("retries").inc()
        reg.counter("retries").inc(4)
        assert reg.counter("retries").value == 5
        with pytest.raises(ValueError):
            reg.counter("retries").inc(-1)

    def test_snapshot_is_sorted_and_json_stable(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        # Register in opposite orders: snapshots must still match.
        for reg, order in ((a, ("z", "a")), (b, ("a", "z"))):
            for name in order:
                reg.counter(name).inc(3)
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
        assert list(a.as_dict()["counters"]) == ["a", "z"]


def _traced_scf(backend: str) -> Tracer:
    tracer = Tracer()
    with activate(tracer):
        SCFDriver(
            hydrogen_molecule(), get_settings("minimal"), backend=backend
        ).run()
    return tracer


class TestCrossBackendDeterminism:
    """Metric values depend only on the work, never on the clock."""

    def test_same_backend_repeat_is_bit_identical(self):
        first = _traced_scf("numpy").metrics.as_dict()
        second = _traced_scf("numpy").metrics.as_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_shared_work_counters_identical_across_backends(self):
        # The backends are bit-exact over the same batch schedule, so
        # the per-phase work counters must agree exactly; only the
        # backend-private counters (cache hits, launches) may differ.
        snaps = {b: _traced_scf(b).metrics.as_dict() for b in ("numpy", "device")}
        shared = [
            f"backend.{phase}.{leaf}"
            for phase in ("Sumup", "H")
            for leaf in ("calls", "elements")
        ]
        for key in shared:
            assert (
                snaps["numpy"]["counters"][key]
                == snaps["device"]["counters"][key]
            ), key

    def test_batched_backend_emits_cache_counters(self):
        """``BatchedBackend`` is the default host engine: its cache
        traffic is on every default run's metrics."""
        counters = _traced_scf("numpy").metrics.as_dict()["counters"]
        assert counters.get("backend.cache.misses", 0) > 0
        assert counters["backend.cache.hits"] > counters["backend.cache.misses"]


class TestRunReport:
    def test_from_run_unifies_tracer_and_provenance(self):
        tracer = Tracer()
        with tracer.span("density", category="phase"):
            pass
        tracer.metrics.counter("comm.bytes_reduced").inc(512)
        report = RunReport.from_run("unit", tracer=tracer, seed=7, note="x")
        doc = report.as_dict()
        assert doc["trace"]["spans"] == 1
        assert doc["metrics"]["counters"]["comm.bytes_reduced"] == 512
        assert doc["extra"] == {"note": "x"}
        assert doc["provenance"]["seed"] == 7
        # JSON round-trip must be loadable and stable.
        assert json.loads(report.to_json())["label"] == "unit"

    def test_render_ascii_includes_every_section(self):
        tracer = Tracer()
        tracer.metrics.counter("backend.Sumup.calls").inc(8)
        report = RunReport.from_run("unit", tracer=tracer)
        report.phase_seconds = {"Sumup": 0.5, "H": 0.25}
        art = report.render_ascii()
        assert "run report [unit]" in art
        assert "Sumup" in art and "backend.Sumup.calls" in art
        assert "> provenance:" in art

    def test_write_artifact(self, tmp_path):
        path = RunReport(label="t", phase_seconds={"H": 1.0}).write(
            tmp_path / "report.json"
        )
        doc = json.loads(path.read_text())
        assert doc["wall_seconds"] == 1.0


def test_docstring_audit_reports_every_offender():
    """A broken module is itself an offender, and the audit keeps going,
    reporting every later module in the same run."""
    from repro.testing.docs import AUDITED_MODULES, missing_docstrings

    assert missing_docstrings(["repro.obs.analyze", "repro.service.worker"]) == []
    offenders = missing_docstrings(
        ["repro.no_such_module", "repro.also_missing", *AUDITED_MODULES]
    )
    assert any("repro.no_such_module" in o for o in offenders)
    assert any("repro.also_missing" in o for o in offenders)
    assert len(offenders) == 2
