"""Trace analytics & scaling attribution (repro.obs.analyze) + satellites:
the shared imbalance definition, artifact-path hardening and byte-stable
bench emission."""

import json
import subprocess
import sys
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.cli import main as cli_main
from repro.dft.scf import SCFDriver
from repro.errors import ArtifactError, ExperimentError, MappingError
from repro.mapping.strategies import BatchAssignment
from repro.obs import Span, Tracer, activate, write_chrome_trace
from repro.obs.analyze import (
    Timeline,
    TimelineEvent,
    critical_path,
    diff_timelines,
    load_run,
    mapping_attribution,
    phase_imbalances,
    scheme_cost_table,
    strong_scaling,
    weak_scaling,
)
from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD
from repro.service import StateStore, WorkerPool
from repro.service.faults import FaultPlan, ScheduledFault
from repro.utils.artifacts import prepare_artifact_path
from repro.utils.balance import max_mean_imbalance


# ----------------------------------------------------------------------
# Satellite: the one imbalance definition
# ----------------------------------------------------------------------
class TestSharedImbalance:
    def test_helper_values(self):
        assert max_mean_imbalance([2.0, 2.0]) == 1.0
        assert max_mean_imbalance([3.0, 1.0]) == 1.5
        assert max_mean_imbalance(np.array([4, 2, 0])) == 2.0

    def test_helper_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="zero workers"):
            max_mean_imbalance([])
        with pytest.raises(ValueError, match="zero total load"):
            max_mean_imbalance([0.0, 0.0])

    def test_mapping_agrees_with_helper_on_identical_loads(self):
        # The mapping call site delegates to the shared helper.
        loads = [3, 1]
        assignment = BatchAssignment("test", 2, ((0,), (1,)))
        batches = [SimpleNamespace(n_points=n) for n in loads]
        assert assignment.imbalance(batches) == max_mean_imbalance(loads)

    def test_domain_specific_errors_preserved(self):
        with pytest.raises(MappingError, match="no grid points"):
            BatchAssignment("test", 1, ((0,),)).imbalance(
                [SimpleNamespace(n_points=0)]
            )

    def test_timeline_phase_imbalance_uses_same_definition(self):
        tl = Timeline(events=[TimelineEvent(0, "H", 0.0, 3.0),
                              TimelineEvent(1, "H", 0.0, 1.0)])
        rows = phase_imbalances(tl)
        assert rows[0].imbalance == max_mean_imbalance([3.0, 1.0])
        assert rows[0].hot_ranks[0] == 0


# ----------------------------------------------------------------------
# Satellite: artifact-path hardening
# ----------------------------------------------------------------------
class TestArtifactPaths:
    def test_creates_parent_directories(self, tmp_path):
        out = prepare_artifact_path(tmp_path / "a" / "b" / "t.json")
        assert out.parent.is_dir()

    def test_refuses_overwrite_without_force(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text("{}")
        with pytest.raises(ArtifactError, match="--force"):
            prepare_artifact_path(target)
        assert prepare_artifact_path(target, force=True) == target

    def test_rejects_directory_target(self, tmp_path):
        with pytest.raises(ArtifactError, match="directory"):
            prepare_artifact_path(tmp_path)

    def test_cli_trace_refuses_overwrite_and_force_overrides(
        self, tmp_path, capsys
    ):
        out = tmp_path / "nested" / "dir" / "trace.json"
        argv = ["trace", "--molecule", "h2", "--out", str(out)]
        assert cli_main(argv) == 0
        assert out.exists()
        capsys.readouterr()
        # Second run without --force: exit 2, clear one-line error.
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "refusing to overwrite" in err and "--force" in err
        assert cli_main(argv + ["--force"]) == 0

    def test_cli_report_parent_dirs_created(self, tmp_path, capsys):
        report = tmp_path / "reports" / "run.json"
        assert cli_main([
            "trace", "--molecule", "h2",
            "--out", str(tmp_path / "t.json"), "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["label"].startswith("physics:H2")


# ----------------------------------------------------------------------
# Tentpole: timelines and the critical path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_runs(minimal_settings):
    """Spans of a fault-free H2 SCF run, and of a service drain of the same
    SCF whose worker crashes on its first claim and recovers on lease
    expiry."""
    clean, faulted = Tracer(), Tracer()
    with activate(clean):
        SCFDriver(hydrogen_molecule(), minimal_settings).run()

    def runner(task):
        gs = SCFDriver(hydrogen_molecule(), minimal_settings).run()
        return {"energy": gs.total_energy}

    store = StateStore(lease_seconds=2.0)
    store.submit({"molecule": "h2"}, key="h2", now=0.0)
    plan = FaultPlan(schedule=[ScheduledFault(call_index=0, site="worker:w0")])
    pool = WorkerPool(store, n_workers=1, runner=runner, fault_plan=plan, start_time=0.0)
    with activate(faulted):
        report = pool.run_until_idle()
    assert (report.crashes, report.completed) == (1, 1)
    return clean.spans, faulted.spans


class TestTimeline:
    def test_from_spans_builds_segments_and_phases(self, traced_runs):
        tl = Timeline.from_spans(traced_runs[0], label="clean")
        assert tl.n_ranks == 1
        assert tl.primary_categories() == ("phase",)
        segments = tl.segments()
        assert "scf[1]" in segments and "scf[2]" in segments
        assert segments.index("scf[1]") < segments.index("scf[2]")
        assert set(tl.busy_matrix()) >= {"density", "hartree", "eigensolver"}

    def test_a_cpscf_block_renders_as_one_lane(self, minimal_settings, tmp_path):
        """The three directions share one cycle: its spans carry the active
        directions and the segment reads cpscf0+1+2[cycle]; once x and y
        have converged (cycle 18 on H2), z runs alone as cpscf2[cycle]."""
        from repro.dfpt.response import DFPTSolver

        gs = SCFDriver(hydrogen_molecule(), minimal_settings).run()
        tracer = Tracer()
        with activate(tracer):
            DFPTSolver(gs, minimal_settings.cpscf).solve_all()
        sumup = [s for s in tracer.spans if s.name == "Sumup"]
        assert sumup[0].attrs["directions"] == [0, 1, 2]
        segments = Timeline.from_spans(tracer.spans).segments()
        assert segments[0] == "cpscf0+1+2[1]" and "cpscf0+1+2[18]" in segments
        assert "cpscf2[19]" in segments and "cpscf0[19]" not in segments
        loaded = load_run(write_chrome_trace(tmp_path / "block.json", tracer.spans))
        assert loaded.segments() == segments

    def test_chrome_trace_roundtrip_preserves_busy_accounting(
        self, traced_runs, tmp_path
    ):
        tl = Timeline.from_spans(traced_runs[0])
        path = write_chrome_trace(tmp_path / "run.json", traced_runs[0])
        loaded = load_run(path)
        for phase, row in tl.busy_matrix().items():
            for rank, seconds in row.items():
                assert loaded.busy_matrix()[phase][rank] == pytest.approx(
                    seconds, rel=1e-6, abs=5e-6  # microsecond granularity
                )

    def test_critical_path_picks_max_busy_rank_with_deterministic_ties(self):
        tl = Timeline(events=[
            TimelineEvent(0, "Sumup", 0.0, 1.0, segment="c[1]"),
            TimelineEvent(1, "Sumup", 0.0, 4.0, segment="c[1]"),
            TimelineEvent(0, "DM", 4.0, 6.0, segment="c[2]"),
            TimelineEvent(1, "DM", 4.0, 6.0, segment="c[2]"),  # tie
        ])
        cp = critical_path(tl)
        assert [(s.segment, s.phase, s.rank) for s in cp.steps] == [
            ("c[1]", "Sumup", 1), ("c[2]", "DM", 0),
        ]
        assert cp.bound_seconds == 6.0
        assert cp.wall_seconds == 6.0

    def test_load_run_degrades_run_report_to_phase_sequence(self, tmp_path):
        doc = {"label": "r", "phase_seconds": {"scf": 2.0, "cpscf": 3.0}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        tl = load_run(path)
        assert tl.wall_seconds == 5.0
        assert {p: sum(row.values()) for p, row in tl.busy_matrix().items()} == {
            "scf": 2.0, "cpscf": 3.0,
        }

    def test_load_run_rejects_unknown_document(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"what": 1}')
        with pytest.raises(ExperimentError, match="neither"):
            load_run(path)


class TestChaosAttribution:
    """A seeded worker crash, emitted live, must survive into the analytics."""

    def test_fault_event_lands_in_timeline_with_its_claim_site(self, traced_runs):
        tl = Timeline.from_spans(traced_runs[1], label="faulted")
        assert len(tl.faults) == 1
        fault = tl.faults[0]
        assert fault.kind == "worker_crash"
        assert fault.site == "worker:w0[0]"  # the worker's first claim
        assert fault.segment == ""  # the crash precedes every SCF cycle
        assert {"scf[1]", "scf[2]"} <= set(tl.segments())  # the retry ran

    def test_fault_named_on_critical_path(self, traced_runs):
        tl = Timeline.from_spans(traced_runs[1])
        rendered = critical_path(tl).render()
        assert "fault on path: worker_crash at worker:w0[0]" in rendered

    def test_fault_named_in_diff_narrative(self, traced_runs):
        base = Timeline.from_spans(traced_runs[0], label="clean")
        fresh = Timeline.from_spans(traced_runs[1], label="faulted")
        text = diff_timelines(base, fresh).narrative()
        assert "injected faults in fresh run only:" in text
        assert "worker_crash at worker:w0[0]" in text


# ----------------------------------------------------------------------
# Tentpole: A/B diff attribution
# ----------------------------------------------------------------------
def _straggler_pair(tmp_path):
    """Two recorded runs; the fresh one has rank 2 straggling in Sumup."""

    def spans(straggle):
        out = []
        for cycle in (1, 2):
            t0 = (cycle - 1) * 2.0
            for rank in range(4):
                sumup = 0.5 + (3.0 if straggle and rank == 2 and cycle == 2 else 0.0)
                attrs = {"rank": rank, "loop": "cpscf", "direction": 0,
                         "cycle": cycle}
                out.append(Span("Sumup", "phase", t0, t0 + sumup, dict(attrs)))
                out.append(Span("DM", "phase", t0 + sumup, t0 + sumup + 0.5,
                                dict(attrs)))
        if straggle:
            out.append(Span("straggler", "fault", 2.5, 2.5,
                            {"rank": 2, "site": "allreduce[2]", "delay": 3.0},
                            instant=True))
        return out

    base = write_chrome_trace(tmp_path / "base.json", spans(False))
    fresh = write_chrome_trace(tmp_path / "fresh.json", spans(True))
    return base, fresh


class TestDiffAttribution:
    def test_top_contribution_names_perturbed_phase_and_rank(self, tmp_path):
        base, fresh = _straggler_pair(tmp_path)
        diff = diff_timelines(load_run(base), load_run(fresh))
        top = diff.contributions[0]
        assert (top.phase, top.rank) == ("Sumup", 2)
        assert top.delta == pytest.approx(3.0, rel=1e-5)
        assert diff.wall_delta == pytest.approx(3.0, rel=1e-5)

    def test_narrative_links_fault_to_contribution(self, tmp_path):
        base, fresh = _straggler_pair(tmp_path)
        text = diff_timelines(load_run(base), load_run(fresh)).narrative()
        first = [l for l in text.splitlines() if l.startswith("1.")][0]
        assert "phase Sumup on rank 2" in first
        assert "straggler" in first  # fault linked inline

    def test_cli_diff_is_deterministic_across_invocations(self, tmp_path):
        base, fresh = _straggler_pair(tmp_path)
        argv = [sys.executable, "-m", "repro", "analyze", "diff",
                str(base), str(fresh)]
        env_root = Path(__file__).resolve().parent.parent
        runs = [
            subprocess.run(
                argv, capture_output=True, text=True,
                cwd=env_root, env={"PYTHONPATH": str(env_root / "src")},
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout  # byte-identical
        first = [l for l in runs[0].stdout.splitlines()
                 if l.startswith("1.")][0]
        assert "phase Sumup on rank 2" in first

    def test_identical_runs_diff_to_no_change(self, tmp_path):
        base, _ = _straggler_pair(tmp_path)
        diff = diff_timelines(load_run(base), load_run(base))
        assert diff.wall_delta == 0.0
        assert "no per-phase busy-time change" in diff.narrative()


# ----------------------------------------------------------------------
# Tentpole: scaling parity with the figures + attribution inputs
# ----------------------------------------------------------------------
class TestScalingParity:
    def test_strong_scaling_matches_fig15_exactly(self):
        from repro.experiments.fig15_strong import run_fig15_strong

        result = run_fig15_strong(
            n_atoms=3002, ranks_hpc1=(128, 256), ranks_hpc2=(128, 256)
        )
        for series in result.series:
            points = strong_scaling(series.ranks, series.cycle_seconds)
            assert [p.speedup for p in points] == series.speedups()
            assert [p.efficiency for p in points] == series.efficiencies()
            assert points[0].speedup == 1.0
            # within-1% acceptance bound holds trivially (same code path)
            for p, s in zip(points, series.speedups()):
                assert p.speedup == pytest.approx(s, rel=0.01)

    def test_weak_scaling_matches_fig16_exactly(self):
        from repro.experiments.fig16_weak import run_fig16_weak

        result = run_fig16_weak(cases=((3002, 128, 128), (6002, 256, 256)))
        for series in result.series:
            points = weak_scaling(
                series.atoms, series.ranks, series.cycle_seconds
            )
            assert [p.efficiency for p in points] == series.efficiencies()
            assert points[0].efficiency == 1.0

    def test_scaling_rejects_degenerate_series(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            strong_scaling([], [])
        with pytest.raises(ExperimentError, match="non-positive"):
            strong_scaling([1, 2], [1.0, 0.0])

    def test_mapping_attribution_shows_locality_advantage(self):
        from repro.experiments.common import polyethylene_simulator

        sim = polyethylene_simulator(602)
        rows = [
            mapping_attribution(sim.assignment(8, locality), sim.batches)
            for locality in (False, True)
        ]
        by_strategy = {r.strategy: r for r in rows}
        # The paper's trade: locality mapping touches far fewer atoms
        # per rank while staying point-balanced.
        assert (by_strategy["locality_enhancing"].mean_atoms
                < by_strategy["load_balancing"].mean_atoms / 2)
        for r in rows:
            assert r.imbalance >= 1.0

    def test_scheme_cost_table_skips_unavailable_schemes(self):
        # HPC#1 has no shared-memory windows: hierarchical is skipped.
        with_shm = scheme_cost_table(HPC2_AMD, 64, 512, 4096)
        without = scheme_cost_table(HPC1_SUNWAY, 64, 512, 4096)
        assert len(with_shm) == len(without) + 1
        assert all(rep.total_time > 0 for _, rep in with_shm)

    def test_scheme_cost_annotations_resolve(self):
        # The machine annotation used to name a module that does not exist.
        from repro.runtime.machines import MachineSpec

        assert typing.get_type_hints(scheme_cost_table)["machine"] is MachineSpec


# ----------------------------------------------------------------------
# The clock-free bench emission
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def emission_pair():
    from repro.obs.bench import backend_emission

    return (backend_emission("minimal", 1), backend_emission("minimal", 1))


class TestByteStableEmission:
    def test_stable_view_bytes_identical_across_runs(self, emission_pair):
        """Byte-stable by construction: ``stable_view`` finds nothing to
        strip, and the whole documents already agree."""
        from repro.obs.bench import stable_view

        a, b = emission_pair
        assert stable_view(a) == a
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_gate_still_sees_timings_via_flatten(self):
        """A ``timings`` subtree in a baseline (no ``BENCH_*.json`` carries
        one today) is not skipped by ``flatten``: its numeric leaves are
        gated, and gated exact."""
        from repro.obs.regress import default_band, flatten

        doc = {"scenarios": {"steady": {"overall": {"completed": 8, "timings": {
            "phase_seconds": {"scf": 1.5, "cpscf": 0.75}}}}}}
        flat = flatten(doc)
        keys = [k for k in flat if ".timings." in k]
        assert sorted(keys) == [
            "scenarios.steady.overall.timings.phase_seconds.cpscf",
            "scenarios.steady.overall.timings.phase_seconds.scf",
        ]
        assert flat["scenarios.steady.overall.timings.phase_seconds.scf"] == 1.5
        assert {default_band(k).kind for k in keys} == {"exact"}
