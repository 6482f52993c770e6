"""Service chaos harness: seeded worker crashes against a fault-free drain.

:func:`run_service_chaos` submits the same requests to two statestores,
drains one fault-free and one under a
:class:`~repro.service.faults.FaultPlan` that kills workers after they
claim, and compares the provenance-stable result bytes key by key.
Everything is deterministic in ``seed``: same seed, same crashes, same
recovery, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.service.faults import FaultPlan, ScheduledFault


@dataclass
class ServiceChaosReport:
    """Crash/retry verdict for one seeded service chaos scenario.

    ``payload_bytes`` / ``reference_bytes`` map each cache key to the
    provenance-stable serialized result (``timings`` stripped) of the
    faulted and fault-free runs; ``bit_exact`` is the acceptance
    criterion — injected worker crashes changed no result bytes.
    """

    seed: int
    n_workers: int
    crashes: int
    completed: int
    errored: int
    attempts: Dict[str, int]
    payload_bytes: Dict[str, bytes]
    reference_bytes: Dict[str, bytes]

    @property
    def bit_exact(self) -> bool:
        return (
            set(self.payload_bytes) == set(self.reference_bytes)
            and all(
                self.payload_bytes[k] == self.reference_bytes[k]
                for k in self.reference_bytes
            )
        )

    def summary(self) -> str:
        return (
            f"service chaos  seed={self.seed}  {self.n_workers} workers: "
            f"{self.completed} completed, {self.errored} errored, "
            f"{self.crashes} injected crash(es); results bit-exact vs "
            f"fault-free: {'YES' if self.bit_exact else 'NO'}"
        )


def run_service_chaos(
    requests=None,
    seed: int = 2023,
    n_workers: int = 2,
    crash_rate: float = 0.3,
    schedule: Optional[Sequence[ScheduledFault]] = None,
    runner=None,
    store_path=None,
    lease_seconds: float = 2.0,
    max_steps: int = 10_000,
    fleet: Optional[int] = None,
):
    """Service-layer chaos: seeded worker crashes vs a fault-free run.

    Submits the same ``requests`` (default: one minimal-level H2 job)
    to two statestores, drains one pool fault-free and one under a
    :class:`~repro.service.faults.FaultPlan` whose ``crash_rate`` and
    ``schedule`` kill workers after claiming, and compares the
    provenance-stable result bytes key by key.  Deterministic in
    ``seed``; ``runner`` lets tests substitute a cheap stub for the
    real physics runner.

    ``fleet=N`` puts only the **faulted** pool into fleet mode (waves
    of up to N tasks through one shared substrate) while the reference
    stays sequential — so ``bit_exact`` then also proves fleet
    execution under crashes changes no result bytes vs task-at-a-time.
    """
    from repro.config import get_settings
    from repro.service import (
        StateStore,
        WorkerPool,
        JobRequest,
        stable_result_bytes,
        submit_batch,
    )
    from repro.service.statestore import COMPLETE, ERRORED

    if requests is None:
        requests = [JobRequest("h2", get_settings("minimal"))]
    if schedule is None:
        schedule = [ScheduledFault(call_index=0, site="worker:w0")]

    def _drain(
        store: StateStore,
        plan: Optional[FaultPlan],
        fleet_size: Optional[int] = None,
    ):
        submit_batch(store, requests, commit=f"chaos-{seed}", now=0.0)
        pool = WorkerPool(
            store, n_workers=n_workers, runner=runner, fault_plan=plan,
            fleet=fleet_size,
        )
        report = pool.run_until_idle(max_steps=max_steps)
        payloads = {
            t.key: stable_result_bytes(store.result_for_key(t.key))
            for t in store.tasks(COMPLETE)
        }
        return report, payloads

    _, reference = _drain(StateStore(lease_seconds=lease_seconds), None)
    plan = FaultPlan(seed=seed, crash_rate=crash_rate, schedule=schedule)
    faulted_store = StateStore(store_path, lease_seconds=lease_seconds)
    pool_report, payloads = _drain(faulted_store, plan, fleet_size=fleet)

    return ServiceChaosReport(
        seed=seed,
        n_workers=n_workers,
        crashes=pool_report.crashes,
        completed=pool_report.completed,
        errored=len(faulted_store.tasks(ERRORED)),
        attempts={t.task_id: t.attempts for t in faulted_store.tasks()},
        payload_bytes=payloads,
        reference_bytes=reference,
    )
