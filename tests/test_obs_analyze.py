"""Trace analytics & scaling attribution (repro.obs.analyze) + satellites:
the shared imbalance definition and artifact-path hardening."""

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.cli import main as cli_main
from repro.dft.scf import SCFDriver
from repro.errors import ArtifactError, ExperimentError, MappingError
from repro.grids.batching import csr_of_rows
from repro.mapping.strategies import BatchAssignment
from repro.obs import Tracer, activate, write_chrome_trace
from repro.obs.analyze import (
    Timeline,
    TimelineEvent,
    clock_diff,
    clock_table,
    load_run,
    mapping_attribution,
    strong_scaling,
    weak_scaling,
)
from repro.runtime.machines import HPC2_AMD
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
        assignment = BatchAssignment("test", 2, *csr_of_rows(((0,), (1,))))
        batches = [SimpleNamespace(n_points=n) for n in loads]
        assert assignment.imbalance(batches) == max_mean_imbalance(loads)

    def test_domain_specific_errors_preserved(self):
        with pytest.raises(MappingError, match="no grid points"):
            BatchAssignment("test", 1, *csr_of_rows(((0,),))).imbalance(
                [SimpleNamespace(n_points=0)]
            )


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
        argv = ["physics", "--molecule", "h2", "--trace", str(out)]
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
            "physics", "--molecule", "h2",
            "--trace", str(tmp_path / "t.json"), "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["label"].startswith("physics:H2")


# ----------------------------------------------------------------------
# Tentpole: timelines and the per-phase clock table
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run(minimal_settings):
    """Spans of an H2 SCF run."""
    tracer = Tracer()
    with activate(tracer):
        SCFDriver(hydrogen_molecule(), minimal_settings).run()
    return tracer.spans


class TestTimeline:
    def test_load_run_reads_one_track_of_phase_spans(self, traced_run, tmp_path):
        tl = load_run(write_chrome_trace(tmp_path / "run.json", traced_run))
        assert tl.tracks == [0]
        assert tl.primary_categories() == ("phase",)
        assert {r.name for r in clock_table(tl)} >= {
            "density", "hartree", "eigensolver"}

    def test_a_cpscf_block_renders_as_one_lane(self, minimal_settings, tmp_path):
        """The three directions share one cycle: its spans carry the active
        directions; once x and y have converged (cycle 18 on H2), z runs
        alone from cycle 19."""
        from repro.dfpt.response import DFPTSolver

        gs = SCFDriver(hydrogen_molecule(), minimal_settings).run()
        tracer = Tracer()
        with activate(tracer):
            DFPTSolver(gs, minimal_settings.cpscf).solve_all()
        sumup = [s for s in tracer.spans if s.name == "Sumup"]
        assert sumup[0].attrs["directions"] == [0, 1, 2]
        lanes = {(s.attrs["cycle"], tuple(s.attrs["directions"]))
                 for s in sumup if "cycle" in s.attrs}
        assert {(1, (0, 1, 2)), (18, (0, 1, 2)), (19, (2,))} <= lanes
        assert {d for c, d in lanes if c >= 19} == {(2,)}
        doc = json.loads(
            write_chrome_trace(tmp_path / "block.json", tracer.spans).read_text()
        )
        exported = [e["args"].get("directions") for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["name"] == "Sumup"]
        assert sorted(map(str, exported)) == sorted(
            str(s.attrs.get("directions")) for s in sumup
        )

    def test_chrome_trace_roundtrip_preserves_busy_accounting(
        self, traced_run, tmp_path
    ):
        recorded = defaultdict(float)
        for sp in traced_run:
            if sp.category == "phase":
                recorded[sp.name] += sp.duration
        loaded = load_run(write_chrome_trace(tmp_path / "run.json", traced_run))
        busy = {r.name: r.seconds for r in clock_table(loaded)[:-2]}
        assert set(busy) == set(recorded)
        for phase, seconds in recorded.items():
            assert busy[phase] == pytest.approx(
                seconds, rel=1e-6, abs=5e-6  # microsecond granularity
            )

    def test_load_run_degrades_run_report_to_phase_sequence(self, tmp_path):
        doc = {"label": "r", "phase_seconds": {"scf": 2.0, "cpscf": 3.0}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        tl = load_run(path)
        assert tl.wall_seconds == 5.0
        assert {r.name: r.seconds for r in clock_table(tl)[:-2]} == {
            "scf": 2.0, "cpscf": 3.0,
        }

    def test_load_run_rejects_unknown_document(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"what": 1}')
        with pytest.raises(ExperimentError, match="neither"):
            load_run(path)


class TestClockTable:
    def test_rows_count_the_outermost_family_then_unattributed_and_wall(self):
        tl = Timeline(events=[
            TimelineEvent(0, "Sumup", 1.0, 2.0),
            TimelineEvent(0, "Sumup", 2.0, 2.5, category="backend"),
            TimelineEvent(0, "H", 2.0, 3.0),
            TimelineEvent(0, "H", 3.0, 5.0),
            TimelineEvent(0, "H", 5.0, 9.0),
        ])
        rows = [(r.name, r.calls, r.seconds, r.p50) for r in clock_table(tl)]
        assert rows == [
            ("H", 3, 7.0, 2.0),
            ("Sumup", 1, 1.0, 1.0),  # the nested backend span is not counted
            ("unattributed", 0, 1.0, 0.0),  # before the first span
            ("wall", 0, 9.0, 0.0),
        ]

    def test_h2_phase_totals_match_the_commands_phase_wall(self, tmp_path, capsys):
        trace, report = tmp_path / "h2.json", tmp_path / "report.json"
        assert cli_main(["physics", "--molecule", "h2", "--trace", str(trace),
                         "--report", str(report)]) == 0
        printed = re.search(r"phase spans sum to (\S+)s", capsys.readouterr().out)
        phase_wall = json.loads(report.read_text())["trace"]["phase_wall_seconds"]
        tl = load_run(trace)
        rows = clock_table(tl)
        phases = [r for r in rows if r.name not in ("unattributed", "wall")]
        total = sum(r.seconds for r in phases)
        n_spans = sum(r.calls for r in phases)
        assert total == pytest.approx(phase_wall, rel=0, abs=1e-6 * n_spans)
        assert f"{total:.4g}" == printed.group(1)
        assert (rows[-2].name, rows[-1].name) == ("unattributed", "wall")
        assert rows[-1].seconds == tl.wall_seconds
        assert rows[-2].seconds == pytest.approx(tl.wall_seconds - total)

    def test_eight_atom_trace_prints_at_most_40_lines(self, tmp_path, capsys):
        trace = tmp_path / "pe8.json"
        assert cli_main(["physics", "--polyethylene", "8",
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", "trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) <= 40
        assert lines[0].startswith("timeline [pe8]:") and "1 track(s)" in lines[0]
        assert lines[-2].startswith("unattributed") and lines[-1].startswith("wall")

    def test_two_worker_serve_trace_has_two_tracks_and_a_sane_wall(
        self, tmp_path, capsys
    ):
        store, trace = str(tmp_path / "service.jsonl"), tmp_path / "serve.json"
        for molecule in ("h2", "water"):
            assert cli_main(["submit", "--molecule", molecule, "--no-run",
                             "--store", store]) == 0
        assert cli_main(["serve", "--store", store, "--workers", "2",
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", "trace", str(trace)]) == 0
        assert "2 track(s)" in capsys.readouterr().out.splitlines()[0]
        tl = load_run(trace)
        assert tl.tracks == [1, 2]
        assert 0.0 <= tl.wall_seconds < 60.0


# ----------------------------------------------------------------------
# Tentpole: two runs' clock tables joined by phase
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def h2_backend_traces(tmp_path_factory):
    """Two traces ``repro physics`` writes: H2 dense and screened."""
    out = tmp_path_factory.mktemp("diff")
    traces = []
    for name, screening in (("dense", []), ("screened", ["--screening", "1e-6"])):
        trace = out / f"h2_{name}.json"
        assert cli_main(["physics", "--molecule", "h2", *screening,
                         "--trace", str(trace)]) == 0
        traces.append(trace)
    return traces


def _analyze_diff(base, fresh):
    """``repro analyze diff`` in a fresh interpreter: (returncode, stdout)."""
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "diff", str(base), str(fresh)],
        capture_output=True, text=True, cwd=root,
        env={"PYTHONPATH": str(root / "src")},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestDiffAttribution:
    def test_rows_are_both_runs_clock_table_rows(self, h2_backend_traces):
        base, fresh = map(load_run, h2_backend_traces)
        rows = clock_diff(base, fresh)
        assert [a for a, _ in rows] == clock_table(base)
        assert {b for _, b in rows} == set(clock_table(fresh))
        assert [a.name for a, _ in rows] == [b.name for _, b in rows]
        assert [a.name for a, _ in rows[-2:]] == ["unattributed", "wall"]

    def test_cli_diff_is_deterministic_across_invocations(
        self, h2_backend_traces
    ):
        first, second = (_analyze_diff(*h2_backend_traces) for _ in range(2))
        assert first == second  # byte-identical
        lines = first.splitlines()
        assert lines[3] == "per-phase clock [h2_dense -> h2_screened]"
        table = lines[4:]
        assert table[0].split(" | ")[-1].strip() == "change"
        names = [line.split(" | ")[0].strip() for line in table[2:]]
        assert names == [r.name for r in clock_table(
            load_run(h2_backend_traces[0]))]

    def test_identical_runs_diff_to_no_change(self, h2_backend_traces):
        base = h2_backend_traces[0]
        rows = clock_diff(load_run(base), load_run(base))
        assert all(a == b for a, b in rows)
        table = _analyze_diff(base, base).splitlines()[6:]
        assert len(table) == len(rows)
        assert {line.split(" | ")[-1].strip() for line in table} == {"0.0 us"}


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

    def test_cli_reduction_rows_are_fig10s(self, capsys):
        """``analyze scaling`` prints Fig. 10's own table, which prices
        ``rho_multipole`` (one row per atom), not an ``n_basis``-square
        matrix: 354.1 ms for the baseline at 3 002 atoms on 128 ranks."""
        from repro.experiments.fig10_allreduce import run_fig10_allreduce
        from repro.utils.reports import format_seconds

        assert cli_main(["analyze", "scaling", "--points", "2"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        fig10 = run_fig10_allreduce(HPC2_AMD, {3002: [128, 256]})
        assert fig10.render() in blocks
        atoms, ranks, scheme, comm, local = fig10.rows[0]
        assert (atoms, ranks, scheme) == (3002, 128, "baseline")
        assert format_seconds(comm + local) == "354.12 ms"
