"""Compute workers: pull claimed tasks, run physics, stream results back.

A :class:`Worker` drains one statestore: it claims the
highest-priority eligible task, acknowledges it (``start``), runs the
existing SCF + CPSCF pipeline through the pluggable backend seam under
``repro.obs`` service spans, and completes the task with a
**provenance-stable result payload** — the deterministic physics
fields plus a quarantined ``timings`` subtree, so
:func:`stable_result_bytes` is byte-identical across reruns, retries
and crash recoveries (the service chaos suite's contract).

Crash injection: a :class:`~repro.service.faults.FaultPlan` whose
crash rate or schedule fires makes the worker abandon the claimed task without
completing or failing it — exactly what a dead process looks like to
the store.  Recovery is the store's lease expiry + bounded retry.

:class:`WorkerPool` round-robins several workers under one simulated
clock (the repo's SimMPI philosophy: deterministic, single-process),
expiring leases between steps so crashed tasks are requeued and retried
within the same :meth:`WorkerPool.run_until_idle` call.

>>> from repro.service.statestore import StateStore
>>> store = StateStore(lease_seconds=2.0)
>>> _ = store.submit({"kind": "noop"}, key="ck-demo", now=0.0)
>>> pool = WorkerPool(store, n_workers=1, runner=lambda task: {"ok": True})
>>> report = pool.run_until_idle()
>>> report.completed
1
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs import obs_span
from repro.service.faults import FaultPlan
from repro.service.statestore import StateStore, TaskRecord

#: A task runner: payload-bearing task in, JSON-friendly result out.
TaskRunner = Callable[[TaskRecord], Dict[str, Any]]


def run_physics_task(task: TaskRecord) -> Dict[str, Any]:
    """Execute one ``kind == "physics"`` task payload end to end.

    Rebuilds the structure and :class:`~repro.config.RunSettings` from
    the payload, runs the real pipeline through the configured
    execution backend, and returns the result payload described in
    :func:`result_payload`.
    """
    from repro.core import PerturbationSimulator
    from repro.service.jobs import physics_from_payload

    structure, settings, charge = physics_from_payload(task.payload)
    result = PerturbationSimulator(structure, settings, charge=charge).run_physics()
    return result_payload(task, structure, settings, result)


def result_payload(task, structure, settings, physics_result) -> Dict[str, Any]:
    """The RunReport-linked result document a worker streams back.

    Deterministic physics fields live at the top level; everything
    wall-clock-dependent is quarantined under ``timings`` so
    :func:`stable_result_bytes` (which strips that subtree, exactly
    like ``repro.obs.bench.stable_view``) is byte-stable across
    recomputations of the same task.
    """
    from repro.dfpt.polarizability import isotropic_polarizability
    from repro.obs.report import collect_provenance
    from repro.service.jobs import settings_fingerprint

    gs = physics_result.ground_state
    prov = collect_provenance(seed=task.payload.get("seed"))
    return {
        "task": {"key": task.key, "kind": task.payload.get("kind")},
        "molecule": structure.name,
        "level": settings.level,
        "total_energy": gs.total_energy,
        "scf_iterations": gs.iterations,
        "cpscf_iterations": list(physics_result.cpscf_iterations_per_direction),
        "dipole": gs.dipole_moment().tolist(),
        "polarizability": physics_result.polarizability.tolist(),
        "isotropic_alpha": isotropic_polarizability(
            physics_result.polarizability
        ),
        "provenance": {
            "commit": prov.commit,
            "seed": prov.seed,
            "settings_hash": settings_fingerprint(settings),
        },
        "timings": {"phase_seconds": dict(physics_result.phase_seconds)},
    }


def stable_result_bytes(result: Dict[str, Any]) -> bytes:
    """Canonical bytes of a result with every ``timings`` subtree removed.

    >>> stable_result_bytes({"a": 1, "timings": {"wall": 0.2}})
    b'{"a": 1}'
    """
    from repro.obs.bench import stable_view

    return json.dumps(stable_view(result), sort_keys=True).encode()


@dataclass
class WorkerStats:
    """Per-worker lifecycle counters for one pool run."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    crashes: int = 0


class Worker:
    """One compute worker bound to a statestore.

    Parameters
    ----------
    store:
        The statestore to pull from.
    worker_id:
        Stable identity used for claims/heartbeats and as the fault
        site (``worker:<id>``) the crash plan keys its decisions on.
    runner:
        Task executor; defaults to :func:`run_physics_task`.  Tests
        substitute cheap deterministic stubs.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan`; its
        crash decisions make :meth:`step` abandon claimed
        tasks mid-flight.
    """

    def __init__(
        self,
        store: StateStore,
        worker_id: str,
        *,
        runner: Optional[TaskRunner] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id
        self.runner: TaskRunner = runner or run_physics_task
        self.fault_plan = fault_plan
        self.stats = WorkerStats()
        self._claim_counter = 0

    def step(self, now: Optional[float] = None, limit: int = 1) -> List[str]:
        """Claim up to *limit* tasks and run them as one wave.

        Returns one outcome per claimed task, in claim order —
        ``"completed"``, ``"failed"`` or ``"crashed"`` (empty when
        nothing was eligible).  Crash decisions are drawn **per claim**,
        in claim order, so a ``worker_crash`` at claim index k abandons
        the k-th and every later task of the wave (the partial-wave loss
        a dying worker produces) while earlier tasks execute.  A crash
        is silent: no ``complete``/``fail`` reaches the store, and
        recovery is entirely the store's lease expiry.

        A sequential job is the wave of one: it and every task of a
        custom runner go through ``runner(task)``; a wave of several
        physics tasks runs through :func:`~repro.fleet.driver.run_fleet`,
        byte-identical to running them one by one.
        """
        outcomes: List[str] = []
        wave: List[TaskRecord] = []
        crashed = False
        for task in self.store.claim(self.worker_id, limit=limit, now=now):
            self.stats.claimed += 1
            self._claim_counter += 1
            if not crashed and self.fault_plan is not None:
                if self.fault_plan.worker_fault(
                    f"worker:{self.worker_id}",
                    self._claim_counter - 1,
                    attempt=task.attempts - 1,
                ) is not None:
                    self.stats.crashes += 1
                    crashed = True
            if crashed:
                outcomes.append("crashed")  # abandoned with the worker
            else:
                wave.append(task)
        if not wave:
            return outcomes
        for task in wave:
            self.store.start(task.task_id, self.worker_id, now=now)
        if len(wave) > 1 and self.runner is run_physics_task:
            results = self._run_fleet(wave)
        else:
            results = [self._run_one(task) for task in wave]
        for task, (result, error) in zip(wave, results):
            outcomes.append(self._settle(task, result, error, now))
        return outcomes

    def _run_one(self, task: TaskRecord) -> Tuple[Any, Optional[str]]:
        """``(result, None)`` of ``runner(task)``, or ``(None, error)``."""
        with obs_span(
            "service.task", category="service", worker=self.worker_id,
            task=task.task_id, key=task.key, attempt=task.attempts,
        ):
            try:
                return self.runner(task), None
            except Exception as exc:  # noqa: BLE001 — any task error requeues
                return None, f"{type(exc).__name__}: {exc}"

    def _run_fleet(
        self, wave: List[TaskRecord]
    ) -> List[Tuple[Any, Optional[str]]]:
        """One ``(result, error)`` per task of a physics wave, fleet-run."""
        from repro.fleet import FleetTask, run_fleet

        with obs_span(
            "service.fleet", category="service", worker=self.worker_id,
            n_tasks=len(wave),
        ):
            try:
                outcome = run_fleet(
                    FleetTask(key=t.key, payload=t.payload) for t in wave
                )
            except Exception as exc:  # noqa: BLE001 — driver error requeues all
                return [(None, f"{type(exc).__name__}: {exc}")] * len(wave)
        return [
            (outcome.results[t.key], None)
            if t.key in outcome.results
            else (None, outcome.errors.get(t.key, "fleet group failed"))
            for t in wave
        ]

    def _settle(
        self, task: TaskRecord, result: Any, error: Optional[str],
        now: Optional[float],
    ) -> str:
        """Report one executed task's terminal state; count it once."""
        if error is not None:
            self.store.fail(task.task_id, self.worker_id, error, now=now)
            self.stats.failed += 1
            return "failed"
        self.store.heartbeat(task.task_id, self.worker_id, now=now)
        self.store.complete(task.task_id, self.worker_id, result, now=now)
        self.stats.completed += 1
        return "completed"


@dataclass
class PoolReport:
    """Aggregate outcome of one :meth:`WorkerPool.run_until_idle` drain."""

    steps: int = 0
    completed: int = 0
    failed: int = 0
    crashes: int = 0
    idle: bool = True
    worker_stats: Dict[str, WorkerStats] = field(default_factory=dict)

    def summary(self) -> str:
        """One human-readable line per pool drain."""
        state = "drained" if self.idle else "STOPPED (step budget exhausted)"
        return (
            f"worker pool {state} after {self.steps} step(s): "
            f"{self.completed} completed, {self.failed} failed attempts, "
            f"{self.crashes} injected crash(es) across "
            f"{len(self.worker_stats)} worker(s)"
        )


class WorkerPool:
    """A deterministic round-robin pool of :class:`Worker` instances.

    Time is simulated: each scheduling step advances the shared logical
    clock by ``dt`` and first expires stale leases, so tasks abandoned
    by crashed workers are requeued and retried *within* one
    :meth:`run_until_idle` call.

    With ``fleet=N`` each worker step claims up to N tasks and runs
    them as one wave (:meth:`Worker.step` with ``limit=N``) instead of
    one task at a time — same results byte for byte, amortized substrate.
    Without ``fleet`` the pool drains sequentially (a wave size of one).
    """

    def __init__(
        self,
        store: StateStore,
        n_workers: int = 2,
        *,
        runner: Optional[TaskRunner] = None,
        fault_plan: Optional[FaultPlan] = None,
        start_time: Optional[float] = None,
        dt: float = 1.0,
        fleet: Optional[int] = None,
    ) -> None:
        if n_workers < 1:
            raise ServiceError(f"need >= 1 worker, got {n_workers}")
        if dt <= 0:
            raise ServiceError(f"dt must be > 0, got {dt}")
        if fleet is not None and (not isinstance(fleet, int) or fleet < 1):
            raise ServiceError(f"fleet must be a wave size >= 1, got {fleet!r}")
        self.fleet = fleet
        self.store = store
        self.workers = [
            Worker(store, f"w{i}", runner=runner, fault_plan=fault_plan)
            for i in range(n_workers)
        ]
        # Default to the store's own clock so logical test clocks and
        # real journals (stamped with epoch times) both drain.
        self.now = store.now() if start_time is None else float(start_time)
        self.dt = float(dt)

    def _pending(self) -> bool:
        return any(t.live for t in self.store.tasks())

    def run_until_idle(self, max_steps: int = 10_000) -> PoolReport:
        """Drain the queue: step workers until no live task remains.

        Lease expiry runs between steps, so the loop terminates for
        every bounded-retry queue: each live task either completes or
        exhausts its attempts into terminal ``errored``.
        """
        report = PoolReport()
        while self._pending():
            if report.steps >= max_steps:
                report.idle = False
                break
            report.steps += 1
            self.now += self.dt
            self.store.expire_leases(now=self.now)
            for worker in self.workers:
                # A sequential pool is the pool whose wave size is one.
                worker.step(now=self.now, limit=self.fleet or 1)
        for worker in self.workers:
            report.completed += worker.stats.completed
            report.failed += worker.stats.failed
            report.crashes += worker.stats.crashes
            report.worker_stats[worker.worker_id] = worker.stats
        return report
