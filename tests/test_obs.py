"""The observability layer: tracer, ambient context, RunReport."""

import json

from repro.atoms import hydrogen_molecule
from repro.backends import BatchedBackend
from repro.config import get_settings
from repro.dft import SCFDriver
from repro.obs import (
    RunReport,
    Tracer,
    activate,
    current_context,
    current_tracer,
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
                with obs_span("DM", site="worker:w0[1]"):
                    pass
        assert t.spans[0].attrs == {"backend": "numpy", "cycle": 2}
        assert t.spans[1].attrs == {
            "backend": "numpy", "cycle": 1, "site": "worker:w0[1]",
        }

    def test_context_restored_after_block(self):
        with trace_context(cycle=1):
            pass
        assert current_context() == {}

    def test_helpers_are_noops_without_tracer(self):
        assert current_tracer() is None
        with obs_span("Rho") as sp:
            assert sp is None

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


def _scf_work(backend="numpy") -> dict:
    """One H2 SCF's :class:`~repro.backends.base.BackendProfile`, without
    its wall-clock seconds."""
    driver = SCFDriver(hydrogen_molecule(), get_settings("minimal"), backend=backend)
    driver.run()
    doc = driver.backend.profile.as_dict()
    for row in doc["phases"].values():
        del row["seconds"]
    return doc


class TestCrossBackendDeterminism:
    """Profile counts depend only on the work, never on the clock."""

    def test_same_backend_repeat_is_bit_identical(self):
        first, second = _scf_work("numpy"), _scf_work("numpy")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_shared_work_counters_identical_across_backends(self):
        # The cache regimes are bit-exact over the same batch schedule,
        # so the per-phase work counts must agree exactly; only the
        # cache counters (and the basis evaluations they save) differ.
        warm, cold = _scf_work(), _scf_work(BatchedBackend(max_cache_bytes=0))
        for phase in ("Sumup", "H"):
            assert warm["phases"][phase] == cold["phases"][phase]
        assert warm["grid"] == cold["grid"]
        assert warm["cache"]["hits"] > 0 == cold["cache"]["hits"]

    def test_batched_backend_emits_cache_counters(self):
        """``BatchedBackend`` is the default host engine: its cache
        traffic is on every default run's profile."""
        cache = _scf_work("numpy")["cache"]
        assert cache["misses"] > 0
        assert cache["hits"] > cache["misses"]


class TestRunReport:
    def test_from_run_unifies_tracer_and_provenance(self):
        tracer = Tracer()
        with tracer.span("density", category="phase"):
            pass
        report = RunReport.from_run("unit", tracer=tracer, seed=7, note="x")
        doc = report.as_dict()
        assert doc["trace"]["spans"] == 1
        assert doc["trace"]["categories"] == ["phase"]
        assert doc["extra"] == {"note": "x"}
        assert doc["provenance"]["seed"] == 7
        # JSON round-trip must be loadable and stable.
        assert json.loads(report.to_json())["label"] == "unit"

    def test_physics_prints_each_table_once(self, tmp_path, capsys):
        """``repro physics --trace --report`` prints the phase table and the
        backend profile once each, then the trace line, the report path and
        the provenance footer; the report JSON keeps every section."""
        from repro.cli import main

        trace, report = tmp_path / "h2.json", tmp_path / "report.json"
        assert main(["physics", "--molecule", "h2", "--trace", str(trace),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        for heading in ("per-phase wall time", "backend profile [numpy]",
                        "trace: ", "run report -> ", "> provenance:"):
            assert out.count(heading) == 1, heading
        assert out.rstrip().splitlines()[-1].startswith("> provenance:")
        doc = json.loads(report.read_text())
        assert sorted(doc) == ["backend", "extra", "label", "phase_seconds",
                               "provenance", "trace", "verify", "wall_seconds"]
        assert doc["trace"]["spans"] > 0

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
