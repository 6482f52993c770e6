"""Command-line interface.

Mirrors the artifact's workflow (geometry file in, timings and physical
results out):

    python -m repro physics geometry.in --level minimal
    python -m repro physics geometry.in --screening 1e-6
    python -m repro physics --molecule water --trace trace.json --force
    python -m repro bench-check --baseline BENCH_backends.json
    python -m repro analyze trace trace.json
    python -m repro analyze diff base.json fresh.json
    python -m repro analyze scaling --atoms 3002
    python -m repro model geometry.in --machine hpc2 --ranks 2048
    python -m repro model --polyethylene 30002 --machine hpc1 --ranks 4096 --baseline
    python -m repro verify --molecule h2
    python -m repro submit --molecule h2 --level minimal --store service.jsonl
    python -m repro serve --store service.jsonl --workers 2 --fleet 4
    python -m repro status --store service.jsonl
    python -m repro slo --store service.jsonl --window 4
    python -m repro info

Artifact-writing commands refuse to overwrite an existing output file
unless ``--force`` is given, and create missing parent directories.
Library failures (:class:`~repro.errors.ReproError`) exit with status 2
and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional

import numpy as np

from repro.atoms import polyethylene_units_for_atoms
from repro.atoms.builders import BUILTIN_MOLECULES, polyethylene
from repro.atoms.io import read_geometry_in
from repro.config import get_settings
from repro.core import OptimizationFlags, PerturbationSimulator
from repro.dfpt.polarizability import isotropic_polarizability
from repro.errors import CPSCFConvergenceError, ReproError, SCFConvergenceError
from repro.runtime import HPC1_SUNWAY, HPC2_AMD, machine_by_name
from repro.utils.artifacts import prepare_artifact_path
from repro.utils.reports import format_backend_profile, format_bytes, format_seconds


def _positive_int(value: str) -> int:
    """argparse type for sizes: a bad value exits 2 before any file opens."""
    try:
        n = int(value)
    except ValueError:
        n = 0  # rejected below with the same message
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        )
    return n


def _finite_float(value: str, *, positive: bool) -> float:
    """argparse type for a finite float >= 0 (> 0 if *positive*).

    NaN passes every ``<`` / ``<=`` guard behind it, so it is refused
    here, before any file opens.
    """
    try:
        x = float(value)
    except ValueError:
        x = math.nan  # rejected below with the same message
    if not math.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        kind = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(
            f"expected a finite {kind} number, got {value!r}"
        )
    return x


def _load_structure(args: argparse.Namespace):
    if getattr(args, "polyethylene", None):
        return polyethylene(polyethylene_units_for_atoms(args.polyethylene))
    if not args.geometry:
        molecule = getattr(args, "molecule", None)
        if molecule:
            return BUILTIN_MOLECULES[molecule]()
        raise SystemExit(
            "provide a geometry.in path, --polyethylene N_ATOMS or --molecule"
        )
    return read_geometry_in(args.geometry)


def _write_run_artifacts(report, tracer, trace_path, report_path) -> None:
    """Write the span trace and the run report a physics run asked for."""
    from repro.obs import write_chrome_trace

    if trace_path:
        write_chrome_trace(
            trace_path, tracer.spans,
            metadata=report.provenance.as_dict() if report.provenance else None,
        )
        phase_wall = tracer.phase_wall("phase")
        reported = sum(report.phase_seconds.values())
        gap = abs(phase_wall - reported) / reported * 100 if reported else 0.0
        print()
        print(f"trace: {len(tracer.spans)} spans -> {trace_path} "
              f"(open in Perfetto); phase spans sum to "
              f"{phase_wall:.4g}s vs reported {reported:.4g}s "
              f"(gap {gap:.2f}%)")
    if report_path:
        report.write(report_path)
        print(f"run report -> {report_path}")
    if report.provenance is not None:
        print()
        print(report.provenance.footer_markdown())


def _cmd_physics(args: argparse.Namespace) -> int:
    from repro.obs import RunReport, Tracer, activate

    structure = _load_structure(args)
    screening = float(getattr(args, "screening", 0.0) or 0.0)
    settings = get_settings(
        args.level, verify=args.verify, screening_threshold=screening,
    )
    print(f"Running all-electron DFPT on {structure} "
          f"(level={args.level}"
          + (f", screening={screening:g})" if screening > 0.0 else ")"))
    sim = PerturbationSimulator(structure, settings, charge=args.charge)
    # Validate every output path *before* the run: a doomed artifact
    # write must fail fast, not after the SCF+CPSCF work.
    force = getattr(args, "force", False)
    trace_path = getattr(args, "trace", None)
    report_path = getattr(args, "report", None)
    if trace_path:
        trace_path = prepare_artifact_path(trace_path, force=force)
    if report_path:
        report_path = prepare_artifact_path(report_path, force=force)
    tracer = Tracer() if (trace_path or report_path) else None
    label = f"physics:{structure.name}:{args.level}"
    try:
        with activate(tracer):
            result = sim.run_physics()
    except (SCFConvergenceError, CPSCFConvergenceError) as exc:
        # A failed run leaves its evidence: the spans so far and the error.
        if tracer is not None:
            error = {
                "type": type(exc).__name__, "message": str(exc),
                "iterations": exc.iterations, "residual": exc.residual,
                "history": exc.history,
            }
            report = RunReport.from_run(label=label, tracer=tracer, error=error)
            _write_run_artifacts(report, tracer, trace_path, report_path)
        raise
    gs = result.ground_state
    print(f"SCF converged in {gs.iterations} iterations: "
          f"E = {gs.total_energy:.6f} Ha")
    print(f"dipole: {np.array2string(gs.dipole_moment(), precision=4)} e*Bohr")
    print("polarizability (a.u.):")
    for row in result.polarizability:
        print("  " + "  ".join(f"{v:10.4f}" for v in row))
    print(f"isotropic alpha: {isotropic_polarizability(result.polarizability):.4f} a.u.")
    print()
    print("per-phase wall time (SCF + CPSCF):")
    for phase, seconds in result.phase_seconds.items():
        print(f"  {phase:12s} {format_seconds(seconds):>12s}")
    if result.backend_profile is not None:
        from repro.backends.device import device_bill

        print()
        print(format_backend_profile(
            result.backend_profile, device_bill(result.backend_profile)
        ))
    if result.verify_report is not None:
        from repro.utils.reports import format_verify_report

        print()
        print(format_verify_report(result.verify_report))

    if tracer is not None:
        report = RunReport.from_run(
            label=label,
            timer=None,
            backend_profile=result.backend_profile,
            verify_report=result.verify_report,
            tracer=tracer,
        )
        report.phase_seconds = dict(result.phase_seconds)
        _write_run_artifacts(report, tracer, trace_path, report_path)

    if result.verify_report is not None and not result.verify_report.ok:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.utils.reports import format_verify_report
    from repro.verify import (
        GOLDEN_MOLECULES,
        compare_to_golden,
        record_from_run,
        run_conformance,
        save_golden,
    )

    molecules = (
        sorted(GOLDEN_MOLECULES) if args.molecule == "all" else [args.molecule]
    )
    failed: List[str] = []
    for name in molecules:
        structure = GOLDEN_MOLECULES[name]()
        settings = get_settings(args.level, verify="full")
        print(f"=== {name}: invariants (level={args.level}, verify=full) ===")
        sim = PerturbationSimulator(structure, settings)
        result = sim.run_physics()
        report = result.verify_report
        print(format_verify_report(report))
        if not report.ok:
            failed.append(f"{name}:invariants")

        record = record_from_run(
            result.ground_state, result.polarizability, structure.n_electrons
        )
        if args.update_golden:
            from repro.verify import golden_path

            save_golden(name, record, level=args.level, allow_update=True)
            print(f"golden updated: {golden_path(name)}")
        else:
            print(f"\n=== {name}: golden comparison ===")
            golden_report = compare_to_golden(name, record)
            print(format_verify_report(golden_report))
            if not golden_report.ok:
                failed.append(f"{name}:golden")

        if not args.skip_conformance:
            print(f"\n=== {name}: differential conformance ===")
            conf = run_conformance(
                structure, level=args.level, n_ranks=args.ranks
            )
            print(conf.render())
            if not conf.ok:
                failed.append(f"{name}:conformance")
        print()
    if failed:
        print("VERIFICATION FAILED: " + ", ".join(failed))
        return 1
    print("verification passed for: " + ", ".join(molecules))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    structure = _load_structure(args)
    settings = get_settings(args.level)
    machine = machine_by_name(args.machine)
    flags = OptimizationFlags.none() if args.baseline else OptimizationFlags.all()
    sim = PerturbationSimulator(structure, settings)
    rep = sim.run_model(
        machine, args.ranks, flags, use_accelerator=not args.cpu_only
    )
    label = "baseline" if args.baseline else "optimized"
    print(f"{structure.name}: {rep.n_atoms:,} atoms, {rep.n_basis:,} basis functions")
    print(f"{machine.name}, {args.ranks:,} ranks ({label}"
          f"{', CPU only' if args.cpu_only else ''})")
    for phase, seconds in rep.per_cycle_seconds.items():
        print(f"  {phase:6s} {format_seconds(seconds):>12s}")
    print(f"  cycle  {format_seconds(rep.cycle_seconds):>12s}")
    print(f"  init   {format_seconds(rep.init_seconds):>12s} (once)")
    print(f"memory/rank: {format_bytes(rep.memory_per_rank_bytes)}"
          f"  splines/rank: {rep.splines_per_rank}"
          f"  points/rank: {rep.points_per_rank:,}")
    if rep.memory_per_rank_bytes > machine.per_proc_memory:
        print("WARNING: per-rank Hamiltonian exceeds the machine's memory "
              f"({format_bytes(machine.per_proc_memory)}) — this "
              "configuration would fail on the real system")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.bench import baseline_run_parameters, emission_for_baseline
    from repro.obs.regress import compare_reports, load_baseline

    # The gate re-runs whichever emission kind ("backends" or "sparse")
    # the baseline came from.
    baseline = load_baseline(args.baseline)
    kind, parameters = baseline_run_parameters(baseline)
    settings = ", ".join(f"{k}={v}" for k, v in parameters.items())
    print(f"bench-check: fresh {kind} emission ({settings}) "
          f"vs baseline {args.baseline}")
    fresh = emission_for_baseline(baseline)
    if args.write_fresh:
        Path(args.write_fresh).write_text(
            _json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        )
        print(f"fresh emission -> {args.write_fresh}")
    report = compare_reports(fresh, baseline)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.obs.analyze import clock_table, load_run, render_clock_table

    timeline = load_run(args.trace)
    print(timeline.summary())
    print()
    print(render_clock_table(clock_table(timeline), label=timeline.label))
    return 0


def _cmd_analyze_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_run, render_clock_diff

    base, fresh = load_run(args.base), load_run(args.fresh)
    print(base.summary())
    print(fresh.summary())
    print()
    print(render_clock_diff(base, fresh))
    return 0


def _cmd_analyze_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.common import polyethylene_simulator
    from repro.experiments.fig10_allreduce import run_fig10_allreduce
    from repro.experiments.fig15_strong import run_fig15_strong
    from repro.experiments.fig16_weak import run_fig16_weak
    from repro.obs.analyze import mapping_attribution, render_mapping_attributions

    ranks = [args.base_ranks * 2 ** i for i in range(args.points)]
    # The weak series doubles the chain; atom counts must stay of the
    # 6n+2 polyethylene form, so double the unit count instead.
    units = polyethylene_units_for_atoms(args.atoms)
    weak_cases = tuple(
        (6 * units * 2 ** i + 2, ranks[i], ranks[i])
        for i in range(args.points)
    )
    sim = polyethylene_simulator(args.atoms)
    mappings = [
        mapping_attribution(sim.assignment(args.base_ranks, locality), sim.batches)
        for locality in (False, True)
    ]
    print("\n\n".join([
        run_fig15_strong(args.atoms, ranks_hpc1=ranks, ranks_hpc2=ranks).render(),
        run_fig16_weak(cases=weak_cases).render(),
        run_fig10_allreduce(HPC2_AMD, {args.atoms: ranks}).render(),
        render_mapping_attributions(mappings),
    ]))
    return 0


def _open_store(args: argparse.Namespace) -> "object":
    from repro.service import StateStore

    return StateStore(
        args.store,
        fresh=args.fresh,
        force=args.force,
        lease_seconds=getattr(args, "lease_seconds", 30.0),
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobRequest, WorkerPool, submit_job

    structure = _load_structure(args)
    settings = get_settings(args.level)
    request = JobRequest(
        molecule=structure,
        settings=settings,
        charge=args.charge,
        client=args.client,
        priority=args.priority,
        max_retries=args.max_retries,
    )
    store = _open_store(args)
    outcome = submit_job(store, request)
    key = outcome.task.key
    if outcome.cache_hit:
        print(f"{key}: cache hit — served from the result store "
              "(no recomputation)")
        _print_service_result(outcome.result)
        return 0
    if outcome.deduplicated:
        print(f"{key}: deduplicated onto live task {outcome.task.task_id} "
              f"({outcome.task.status})")
    elif outcome.resubmitted:
        print(f"{key}: errored task {outcome.task.task_id} resubmitted "
              "with a fresh retry budget")
    else:
        print(f"{key}: submitted as {outcome.task.task_id} "
              f"(priority {outcome.task.priority}, client {args.client})")
    if args.no_run:
        print("queued; run `repro serve` to process it")
        return 0
    pool = WorkerPool(store, n_workers=1)
    pool.run_until_idle()
    result = store.result_for_key(key)
    task = store.get(outcome.task.task_id)
    if result is None:
        print(f"task {task.task_id} did not complete (status {task.status}"
              f"{': ' + task.error if task.error else ''})")
        return 1
    _print_service_result(result)
    return 0


def _print_service_result(result) -> None:
    if not result:
        return
    print(f"  molecule: {result.get('molecule')}  "
          f"level={result.get('level')}")
    energy = result.get("total_energy")
    alpha = result.get("isotropic_alpha")
    if energy is not None:
        print(f"  E = {energy:.6f} Ha  "
              f"(SCF {result.get('scf_iterations')} iterations)")
    if alpha is not None:
        print(f"  isotropic alpha: {alpha:.4f} a.u.")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import WorkerPool
    from repro.service.faults import FaultPlan
    from repro.service.slo import journal_events, worker_spans

    plan = None
    if args.crash_rate != 0.0:  # NaN included: FaultPlan rejects it
        plan = FaultPlan(seed=args.seed, crash_rate=args.crash_rate)
    store = _open_store(args)
    # This drain's journal lines are the ones after what is there now.
    n_before = len(journal_events(args.store)) if args.trace else 0
    if plan is not None:
        print(f"serving with injected worker crashes "
              f"(rate={args.crash_rate}, seed={args.seed})")
    if args.fleet is not None:
        print(f"fleet mode: waves of up to {args.fleet} task(s) per worker "
              f"share one execution substrate")
    pool = WorkerPool(
        store, n_workers=args.workers, fault_plan=plan, fleet=args.fleet
    )
    report = pool.run_until_idle(max_steps=args.max_steps)
    print(report.summary())
    if args.trace:
        from repro.obs import write_chrome_trace
        from repro.obs.report import collect_provenance

        trace_path = prepare_artifact_path(args.trace, force=args.force)
        write_chrome_trace(
            trace_path,
            worker_spans(journal_events(args.store)[n_before:]),
            metadata=collect_provenance(seed=args.seed).as_dict(),
        )
        print(f"fleet trace (one track per worker) -> {trace_path} "
              f"(open in Perfetto)")
    print()
    print(store.render_status(now=pool.now))
    return 0 if report.idle else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import StateStore

    if not args.watch:
        print(StateStore.snapshot(args.store).render_status())
        return 0
    import itertools
    import time as _time

    refreshes = (
        range(args.iterations) if args.iterations > 0 else itertools.count()
    )
    for i in refreshes:
        if i:
            _time.sleep(args.interval)
        # Re-read per refresh: the replay picks up transitions other
        # processes appended since the last render.
        store = StateStore.snapshot(args.store)
        print(f"--- repro status --watch (refresh {i + 1}) ---")
        print(store.render_status())
        print(flush=True)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.service.slo import journal_events, render_windows, rollup, window_origin

    events = journal_events(args.store)
    windows = rollup(events, args.window, t0=window_origin(events, args.window))
    print(f"statestore journal {args.store}: {len(events)} event(s), "
          f"{len(windows)} window(s) at {args.window:g}s")
    print()
    print(render_windows(windows))
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    for machine in (HPC1_SUNWAY, HPC2_AMD):
        acc = machine.accelerator
        print(machine.name)
        print(f"  ranks/node: {machine.procs_per_node}, "
              f"ranks/accelerator: {machine.ranks_per_accelerator}, "
              f"SHM windows: {machine.shm_windows}")
        print(f"  accelerator: {acc.name} — {acc.compute_units} CUs x "
              f"{acc.lanes_per_unit} lanes, RMA window "
              f"{format_bytes(acc.rma_max_bytes) if acc.rma_max_bytes else 'none'}, "
              f"persistent buffers: {acc.persistent_buffers}")
        print(f"  memory/rank: {format_bytes(machine.per_proc_memory)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="All-electron quantum perturbation simulations (SC'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, physics: bool) -> None:
        p.add_argument("geometry", nargs="?", help="FHI-aims geometry.in file")
        p.add_argument(
            "--polyethylene",
            type=int,
            metavar="N_ATOMS",
            help="use an H(C2H4)nH chain with this many atoms (6n+2)",
        )
        p.add_argument("--level", default="minimal" if physics else "light",
                       choices=["minimal", "light", "tight"])

    def add_physics_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--charge", type=int, default=0)
        p.add_argument(
            "--verify",
            default="off",
            choices=["off", "cheap", "full"],
            help="run physics-invariant checks at phase boundaries",
        )
        from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

        p.add_argument(
            "--screening",
            nargs="?",
            type=float,
            const=DEFAULT_SCREENING_THRESHOLD,
            default=0.0,
            metavar="THRESHOLD",
            help="drop the basis functions whose screened reach misses a "
            "grid batch from that batch's columns (optional threshold; "
            f"bare flag uses {DEFAULT_SCREENING_THRESHOLD:g}, 0 disables "
            "for the exact dense path)",
        )
        p.add_argument(
            "--report",
            metavar="PATH",
            help="write the unified RunReport JSON artifact here",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="overwrite existing --trace/--report artifacts",
        )

    p_phys = sub.add_parser("physics", help="run the real SCF + CPSCF pipeline")
    add_common(p_phys, physics=True)
    add_physics_opts(p_phys)
    p_phys.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Perfetto-loadable Chrome trace-event file here",
    )
    p_phys.add_argument(
        "--molecule",
        choices=list(BUILTIN_MOLECULES),
        help="built-in molecule instead of a geometry.in path",
    )
    p_phys.set_defaults(func=_cmd_physics)

    p_bench = sub.add_parser(
        "bench-check",
        help="counter and cost-model regression gate: fresh benchmark "
        "emission vs a committed BENCH_*.json baseline with per-metric "
        "tolerance bands (wall time is gated by BENCHMARK.json)",
    )
    p_bench.add_argument(
        "--baseline",
        default="BENCH_backends.json",
        help="committed baseline artifact (default: ./BENCH_backends.json)",
    )
    p_bench.add_argument(
        "--write-fresh",
        metavar="PATH",
        help="also write the fresh emission JSON here (baseline updates)",
    )
    p_bench.set_defaults(func=_cmd_bench_check)

    p_an = sub.add_parser(
        "analyze",
        help="post-mortem analytics over recorded artifacts (traces, "
        "run reports)",
    )
    an_sub = p_an.add_subparsers(dest="analyze_command", required=True)

    p_at = an_sub.add_parser(
        "trace",
        help="per-phase clock table (calls, total, p50, share of wall, "
        "unattributed time) of one recorded run",
    )
    p_at.add_argument("trace", help="Chrome trace-event or RunReport JSON")
    p_at.set_defaults(func=_cmd_analyze_trace)

    p_ad = an_sub.add_parser(
        "diff",
        help="two recorded runs' per-phase clock tables joined by phase "
        "(calls, total, p50 of each, change in total)",
    )
    p_ad.add_argument("base", help="base run artifact")
    p_ad.add_argument("fresh", help="fresh run artifact")
    p_ad.set_defaults(func=_cmd_analyze_diff)

    p_as = an_sub.add_parser(
        "scaling",
        help="the Fig. 15/16/10 tables (strong and weak scaling, "
        "reduction schemes) plus the mapping attribution (Fig. 9)",
    )
    p_as.add_argument("--atoms", type=int, default=3002,
                      help="smallest polyethylene chain (default: 3002)")
    p_as.add_argument("--base-ranks", type=int, default=128,
                      help="smallest rank count (default: 128)")
    p_as.add_argument("--points", type=int, default=3,
                      help="doublings per series (default: 3)")
    p_as.set_defaults(func=_cmd_analyze_scaling)

    p_model = sub.add_parser("model", help="price a configuration at scale")
    add_common(p_model, physics=False)
    p_model.add_argument("--machine", default="hpc2", choices=["hpc1", "hpc2"])
    p_model.add_argument("--ranks", type=int, default=1024)
    p_model.add_argument("--baseline", action="store_true",
                         help="disable all of the paper's innovations")
    p_model.add_argument("--cpu-only", action="store_true",
                         help="HPC#2 without its GPUs (Figs. 15-16 variant)")
    p_model.set_defaults(func=_cmd_model)

    p_verify = sub.add_parser(
        "verify",
        help="invariants + goldens + differential conformance on the "
        "reference molecules",
    )
    p_verify.add_argument("--molecule", default="all",
                          choices=[*BUILTIN_MOLECULES, "all"])
    p_verify.add_argument("--level", default="minimal",
                          choices=["minimal", "light", "tight"])
    p_verify.add_argument("--ranks", type=int, default=4,
                          help="simulated ranks for the comm-scheme axis")
    p_verify.add_argument("--update-golden", action="store_true",
                          help="regenerate the committed golden snapshots "
                          "instead of comparing against them")
    p_verify.add_argument("--skip-conformance", action="store_true",
                          help="invariants and goldens only")
    p_verify.set_defaults(func=_cmd_verify)

    def add_store_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default="service.jsonl",
            metavar="PATH",
            help="statestore journal (default: ./service.jsonl); an "
            "existing journal is resumed",
        )
        p.add_argument(
            "--fresh",
            action="store_true",
            help="start a new journal instead of resuming (refuses to "
            "overwrite an existing one without --force)",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="allow --fresh to replace an existing journal",
        )

    p_submit = sub.add_parser(
        "submit",
        help="submit one simulation job to the service statestore "
        "(content-addressed: repeated submissions are cache hits)",
    )
    add_common(p_submit, physics=True)
    p_submit.add_argument("--molecule", choices=list(BUILTIN_MOLECULES),
                          help="built-in molecule instead of a geometry.in path")
    p_submit.add_argument("--charge", type=int, default=0)
    p_submit.add_argument("--client", default="cli",
                          help="client identity (shown by `repro status`)")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="claim priority (higher first; default 0)")
    p_submit.add_argument("--max-retries", type=int, default=3,
                          help="retry budget before terminal errored state")
    p_submit.add_argument("--no-run", action="store_true",
                          help="only enqueue; do not drain with an inline worker")
    add_store_opts(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_serve = sub.add_parser(
        "serve",
        help="drain the statestore with a worker pool (optionally under "
        "injected worker crashes)",
    )
    p_serve.add_argument("--workers", type=_positive_int, default=2,
                         help="pool size (default: 2)")
    p_serve.add_argument("--fleet", type=_positive_int, default=None,
                         metavar="N",
                         help="fleet mode: claim waves of up to N tasks per "
                         "worker and run them through one shared substrate "
                         "(bit-identical to sequential draining)")
    p_serve.add_argument("--max-steps", type=int, default=10_000,
                         help="scheduling-step budget before giving up")
    p_serve.add_argument("--crash-rate", type=float, default=0.0,
                         help="per-claim worker-crash probability (chaos mode)")
    p_serve.add_argument("--seed", type=int, default=2023,
                         help="fault-plan seed for --crash-rate")
    p_serve.add_argument("--lease-seconds", type=float, default=30.0,
                         help="claim lease before a silent worker's task "
                         "is requeued")
    p_serve.add_argument("--trace", metavar="PATH",
                         help="write a fleet Chrome/Perfetto trace of the "
                         "drain: one track per worker, one span per claim")
    add_store_opts(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_status = sub.add_parser(
        "status", help="show the statestore queue, result cache and "
        "worker health (optionally as a live dashboard)"
    )
    p_status.add_argument("--watch", action="store_true",
                          help="refresh the dashboard repeatedly instead of "
                          "printing one snapshot")
    p_status.add_argument("--interval", default=2.0,
                          type=functools.partial(_finite_float, positive=False),
                          metavar="SECONDS",
                          help="--watch refresh period (default: 2.0)")
    p_status.add_argument("--iterations", type=int, default=0, metavar="N",
                          help="stop --watch after N refreshes "
                          "(default: 0 = until interrupted)")
    p_status.add_argument("--store", default="service.jsonl", metavar="PATH",
                          help="statestore journal to read (default: "
                          "./service.jsonl; never written)")
    p_status.set_defaults(func=_cmd_status)

    p_slo = sub.add_parser(
        "slo",
        help="windowed SLO rollups (queue wait, time to result, "
        "lease-expiry rate, queue age) read off a statestore journal",
    )
    p_slo.add_argument("--store", required=True, metavar="PATH",
                       help="statestore journal to read (never written)")
    p_slo.add_argument("--window", default=4.0, metavar="SECONDS",
                       type=functools.partial(_finite_float, positive=True),
                       help="rollup window width in the journal's "
                       "seconds (default: 4.0)")
    p_slo.set_defaults(func=_cmd_slo)

    p_info = sub.add_parser("info", help="show the machine presets")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
