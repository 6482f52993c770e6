"""The committed SLO scenario and its ``BENCH_slo.json`` emission.

Service SLOs are gated exactly like the compute benchmarks: a committed
scenario runs the real statestore + worker pool on the logical clock,
its telemetry stream is rolled up into windows, the alert engine walks
the windows, and the resulting document is compared metric-by-metric
against ``BENCH_slo.json`` by ``repro bench-check`` / ``make slo-check``.

Two scenario variants share one queue shape (:data:`N_JOBS` synthetic
jobs, :data:`N_WORKERS` workers, lease :data:`LEASE_SECONDS`, followed
by a resubmission sweep that produces pure cache hits):

``steady``
    fault-free; the reference.  Every claim completes on its first
    attempt and **zero alerts fire** — pinned by tests.
``chaos``
    a seeded :class:`~repro.runtime.faults.FaultPlan` schedules two
    ``worker_crash`` faults on worker ``w0``'s first two claims.  The
    crashes abandon their tasks, the store's lease expiry requeues
    them, the pool retries them to completion — and the rollup's
    window-0 crash rate (2 crashes / 6 claims) deterministically fires
    ``crash_rate_spike``, which hysteresis clears two quiet windows
    later.  The exact alert sequence is byte-stable and pinned.

Everything in the emission derives from the logical clock — the
rollups' ``timings.phase_seconds`` included, which are the *modeled*
numbers :func:`scenario_runner` returns — so two runs serialize to
identical bytes; no wall clock is read (DESIGN §11.7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.telemetry.alerts import AlertEngine
from repro.obs.telemetry.events import TelemetrySink
from repro.obs.telemetry.health import WorkerHealth, health_from_store
from repro.obs.telemetry.rollup import WindowRollup, overall, rollup

#: Scenario shape (committed: changing any of these regenerates the baseline).
N_JOBS = 8
N_WORKERS = 2
LEASE_SECONDS = 2.0
DEFAULT_WINDOW = 4.0
#: Rollup coverage; fixed so trailing quiet windows (which clear the
#: chaos alert) exist in both variants.
HORIZON = 16.0
#: Seed of the chaos variant's fault plan.
SLO_SEED = 2023


def scenario_runner(task) -> Dict[str, Any]:
    """Deterministic synthetic task executor for the SLO scenario.

    Returns a result payload in the worker contract's shape —
    deterministic fields at the top, per-phase seconds under
    ``timings`` — with *modeled* phase numbers derived from the task
    payload, so even the quarantined subtree is reproducible.
    """
    i = int(task.payload["index"])
    return {
        "index": i,
        "value": (i + 1) ** 2,
        "timings": {
            "phase_seconds": {
                "scf": 0.40 + 0.01 * i,
                "cpscf": 0.20 + 0.005 * i,
            }
        },
    }


@dataclass
class ScenarioRun:
    """Everything one scenario variant produced (for tests and the CLI)."""

    name: str
    sink: TelemetrySink
    store: Any
    steps: int
    completed: int
    failed: int
    crashes: int
    cache_hits: int
    end_time: float
    windows: List[WindowRollup] = field(default_factory=list)
    alerts: List[Dict[str, Any]] = field(default_factory=list)

    def health(self) -> List[WorkerHealth]:
        """Worker health at the scenario's final instant."""
        return health_from_store(self.store, now=self.end_time)


def run_slo_scenario(
    *,
    faults: bool = False,
    seed: int = SLO_SEED,
    window: float = DEFAULT_WINDOW,
) -> ScenarioRun:
    """Run one scenario variant end to end and roll up its telemetry.

    The run is entirely on the logical clock (``dt = 1``): submits at
    ``t = 0``, one claim per worker per step, cache-hit resubmissions
    one tick after the queue drains.  With ``faults=True`` the seeded
    crash schedule described in the module docstring is injected.
    """
    from repro.runtime.faults import FaultPlan, ScheduledFault
    from repro.service.statestore import StateStore
    from repro.service.worker import WorkerPool

    sink = TelemetrySink()
    store = StateStore(
        lease_seconds=LEASE_SECONDS,
        backoff_base=1.0,
        backoff_factor=2.0,
        telemetry=sink,
    )
    for i in range(N_JOBS):
        store.submit(
            {"kind": "slo", "index": i},
            key=f"slo-job-{i}",
            client=f"client-{i % 2}",
            priority=i % 2,
            now=0.0,
        )
    plan = None
    if faults:
        plan = FaultPlan(
            seed=seed,
            schedule=[
                ScheduledFault("worker_crash", call_index=0, site="worker:w0"),
                ScheduledFault("worker_crash", call_index=1, site="worker:w0"),
            ],
        )
    pool = WorkerPool(
        store,
        n_workers=N_WORKERS,
        runner=scenario_runner,
        fault_plan=plan,
        start_time=0.0,
        dt=1.0,
    )
    report = pool.run_until_idle()

    # Resubmission sweep: every key is complete now, so each submit is
    # a pure cache hit (telemetry: N_JOBS cache_hit events, no work).
    t_hits = pool.now + 1.0
    cache_hits = 0
    for i in range(N_JOBS):
        outcome = store.submit(
            {"kind": "slo", "index": i}, key=f"slo-job-{i}", now=t_hits
        )
        cache_hits += int(outcome.cache_hit)

    run = ScenarioRun(
        name="chaos" if faults else "steady",
        sink=sink,
        store=store,
        steps=report.steps,
        completed=report.completed,
        failed=report.failed,
        crashes=report.crashes,
        cache_hits=cache_hits,
        end_time=max(t_hits, HORIZON),
    )
    run.windows = rollup(sink.events, window, horizon=HORIZON)
    run.alerts = AlertEngine().evaluate(run.windows, sink=sink)
    return run


def _alert_summary(alerts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Gate-friendly alert digest: numeric outcomes per rule.

    The regression gate only compares numeric leaves, so each rule's
    fired/cleared counts and deciding window indices are spelled out as
    numbers; the human-ordered ``sequence`` list rides along for the
    rendering (lists are not gated).
    """
    by_rule: Dict[str, Dict[str, float]] = {}
    for a in alerts:
        entry = by_rule.setdefault(
            a["rule"],
            {
                "fired": 0,
                "cleared": 0,
                "first_fired_window": -1,
                "last_cleared_window": -1,
            },
        )
        if a["action"] == "fired":
            entry["fired"] += 1
            if entry["first_fired_window"] < 0:
                entry["first_fired_window"] = a["window"]
        else:
            entry["cleared"] += 1
            entry["last_cleared_window"] = a["window"]
    return {
        "total_fired": sum(1 for a in alerts if a["action"] == "fired"),
        "total_cleared": sum(1 for a in alerts if a["action"] == "cleared"),
        "by_rule": by_rule,
        "sequence": [dict(a) for a in alerts],
    }


def _scenario_doc(run: ScenarioRun) -> Dict[str, Any]:
    return {
        "steps": run.steps,
        "completed": run.completed,
        "failed_attempts": run.failed,
        "crashes": run.crashes,
        "cache_hits": run.cache_hits,
        "events_recorded": len(run.sink.events),
        "windows": {f"w{w.index}": w.as_dict() for w in run.windows},
        "overall": overall(run.sink.events, horizon=HORIZON).as_dict(),
        "alerts": _alert_summary(run.alerts),
    }


def slo_emission(
    seed: int = SLO_SEED, window: float = DEFAULT_WINDOW
) -> Dict[str, Any]:
    """Run both scenario variants; return the ``BENCH_slo.json`` document.

    ``level`` / ``n_sweeps`` are the header every ``BENCH_*.json``
    shares; the scenario has no physics level, and the parameters the
    gate re-runs it at are ``seed`` and ``window``
    (:func:`repro.obs.bench.baseline_run_parameters`).
    """
    from repro.obs.report import collect_provenance

    docs = {
        name: _scenario_doc(
            run_slo_scenario(faults=faults, seed=seed, window=window)
        )
        for name, faults in (("steady", False), ("chaos", True))
    }
    return {
        "benchmark": "slo",
        "system": "synthetic-queue",
        "level": "minimal",
        "n_sweeps": 1,
        "seed": seed,
        "window": window,
        "horizon": HORIZON,
        "n_jobs": N_JOBS,
        "n_workers": N_WORKERS,
        "lease_seconds": LEASE_SECONDS,
        "scenarios": docs,
        "provenance": collect_provenance(seed=seed).as_dict(),
    }


def stable_slo_bytes(emission: Dict[str, Any]) -> bytes:
    """Canonical bytes of an SLO emission with ``timings`` stripped.

    >>> stable_slo_bytes({"benchmark": "slo", "timings": {"s": 0.1}})
    b'{"benchmark": "slo"}'
    """
    from repro.obs.bench import stable_view

    return json.dumps(stable_view(emission), sort_keys=True).encode()


# ----------------------------------------------------------------------
# Rendering (the `repro slo` dashboard)
# ----------------------------------------------------------------------
def render_windows(windows: List[WindowRollup]) -> str:
    """One table row per rollup window (the SLO dashboard's core)."""
    from repro.utils.reports import TableFormatter

    table = TableFormatter(
        [
            "window",
            "span",
            "claims",
            "done",
            "crash%",
            "qwait p50/p99",
            "ttr p50/p99",
            "hit%",
            "oldest wait",
        ],
        title="SLO rollup",
    )
    for w in windows:
        table.add_row(
            [
                f"w{w.index}",
                f"[{w.start:g},{w.end:g})",
                w.counts["claimed"],
                w.counts["completed"],
                f"{100.0 * w.metric('crash_rate'):.0f}",
                f"{w.metric('queue_wait_p50'):g}/{w.metric('queue_wait_p99'):g}",
                f"{w.metric('ttr_p50'):g}/{w.metric('ttr_p99'):g}",
                f"{100.0 * w.metric('cache_hit_ratio'):.0f}",
                f"{w.oldest_waiting_age:g}s",
            ]
        )
    return table.render()


def render_slo_emission(emission: Dict[str, Any]) -> str:
    """The full ``repro slo`` report for one emission document."""
    from repro.obs.telemetry.alerts import render_alerts

    lines = [
        f"SLO scenario: {emission['n_jobs']} jobs, "
        f"{emission['n_workers']} workers, lease "
        f"{emission['lease_seconds']:g}s, window {emission['window']:g}s "
        f"(seed {emission['seed']})"
    ]
    for name in ("steady", "chaos"):
        doc = emission["scenarios"][name]
        lines += [
            "",
            f"=== {name}: {doc['completed']} completed, "
            f"{doc['crashes']} crash(es), {doc['cache_hits']} cache hit(s) "
            f"in {doc['steps']} step(s) ===",
        ]
        windows = _windows_from_doc(doc)
        lines.append(render_windows(windows))
        lines.append("alerts: " + render_alerts(doc["alerts"]["sequence"]))
    return "\n".join(lines)


def _windows_from_doc(doc: Dict[str, Any]) -> List[WindowRollup]:
    """Rebuild :class:`WindowRollup` rows from an emission's window dicts."""
    out = []
    for key in sorted(doc["windows"], key=lambda k: int(k[1:])):
        wd = doc["windows"][key]
        w = WindowRollup(
            index=int(wd["index"]),
            start=float(wd["start"]),
            end=float(wd["end"]),
            queue_wait=list(wd["queue_wait"]["samples"]),
            time_to_result=list(wd["time_to_result"]["samples"]),
            waiting_at_end=int(wd["waiting_at_end"]),
            oldest_waiting_age=float(wd["oldest_waiting_age"]),
        )
        w.counts.update(wd["counts"])
        w.phase_seconds = dict(
            wd.get("timings", {}).get("phase_seconds", {})
        )
        out.append(w)
    return out
