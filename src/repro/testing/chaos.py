"""Chaos harness: the whole pipeline under a seeded fault plan.

One :func:`run_chaos` call plays the same scenario twice:

1. **Fault-free reference** — ground-state SCF + CPSCF polarizability,
   plus the serial (rank-ascending) sum of the per-rank
   ``rho_multipole`` partials.
2. **Faulted run** — the same physics with a
   :class:`~repro.runtime.faults.CycleFaultInjector` forcing
   checkpoint-restarts of SCF/CPSCF cycles, and the same reduction
   through :class:`~repro.comm.resilient.ResilientReduction` on a
   cluster carrying the :class:`~repro.runtime.faults.FaultPlan`
   (rank failures, corrupted/dropped collectives, stragglers,
   persistent faults that force scheme degradation).

The :class:`ChaosReport` exposes what the chaos suite asserts: the
faulted polarizability is **bit-exact** with the reference, the
reduction completed (bit-exact when it ended on a flat scheme), and
:class:`~repro.runtime.simmpi.CommStats` shows the retries and the
degradation path taken.

Everything is deterministic in ``seed``: same seed, same faults, same
recovery, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.atoms import hydrogen_molecule
from repro.atoms.structure import Structure
from repro.comm.resilient import ResilientReduction
from repro.comm.schemes import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
)
from repro.config import get_settings
from repro.core.simulator import iter_physics
from repro.runtime.faults import (
    CycleFaultInjector,
    FaultEvent,
    FaultPlan,
    FaultRates,
    RetryPolicy,
    ScheduledFault,
)
from repro.runtime.machines import HPC2_AMD, MachineSpec
from repro.runtime.simmpi import CommStats, SimCluster
from repro.utils import drain


def default_rates() -> FaultRates:
    """Background fault pressure for a chaos run."""
    return FaultRates(
        message_corruption=0.05,
        collective_error=0.05,
        straggler=0.10,
        cycle_fault=0.15,
        straggler_delay=5.0e-4,
    )


def default_schedule(n_ranks: int) -> List[ScheduledFault]:
    """Guaranteed faults: one rank death, one unrecoverable collective.

    The persistent corruption at collective #2 exhausts the retry
    budget and forces the reduction ladder down one rung — the
    degradation path the acceptance criteria require to be visible.
    """
    return [
        ScheduledFault("rank_failure", call_index=0, rank=min(1, n_ranks - 1)),
        ScheduledFault("message_corruption", call_index=2, persistent=True),
    ]


@dataclass
class ChaosReport:
    """Everything a chaos assertion needs from one seeded run."""

    seed: int
    machine: str
    n_ranks: int
    polarizability: np.ndarray
    reference_polarizability: np.ndarray
    scheme_used: str
    reduction_max_abs_err: float
    comm_stats: CommStats  # cluster-aggregate, including retries/backoff
    degradations: List[str]
    fault_events: List[FaultEvent]
    scf_restarts: int
    cpscf_restarts: int

    @property
    def polarizability_bit_exact(self) -> bool:
        return bool(
            np.array_equal(self.polarizability, self.reference_polarizability)
        )

    @property
    def reduction_bit_exact(self) -> bool:
        return self.reduction_max_abs_err == 0.0

    @property
    def bit_exact(self) -> bool:
        """The acceptance-criterion verdict: recovery changed no bits."""
        return self.polarizability_bit_exact

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ev in self.fault_events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts

    def summary(self) -> str:
        s = self.comm_stats
        lines = [
            f"chaos run  seed={self.seed}  {self.machine}  {self.n_ranks} ranks",
            "injected faults: "
            + (
                ", ".join(f"{k}={n}" for k, n in sorted(self.event_counts().items()))
                or "none"
            ),
            f"cycle restarts: SCF={self.scf_restarts}  CPSCF={self.cpscf_restarts}",
            f"collective retries: {s.retries}  "
            f"(backoff {s.backoff_time:.3g}s, recovery {s.recovery_time:.3g}s, "
            f"rank failures {s.rank_failures}, corrupted {s.corrupted_collectives}, "
            f"dropped {s.dropped_messages}, stragglers {s.straggler_events})",
            "degradation path: "
            + (" | ".join(self.degradations) if self.degradations else "none"),
            f"reduction scheme used: {self.scheme_used}  "
            f"(max |err| vs serial sum: {self.reduction_max_abs_err:.3g})",
            f"polarizability bit-exact vs fault-free: "
            f"{'YES' if self.polarizability_bit_exact else 'NO'}",
        ]
        return "\n".join(lines)


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
    rates: Optional[FaultRates] = None,
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
    :class:`~repro.runtime.faults.FaultPlan` whose ``worker_crash``
    rate/schedule kills workers after claiming, and compares the
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
    if rates is None:
        rates = FaultRates(worker_crash=0.3)
    if schedule is None:
        schedule = [ScheduledFault("worker_crash", call_index=0, site="worker:w0")]

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
    plan = FaultPlan(seed=seed, rates=rates, schedule=schedule)
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


def run_chaos(
    structure: Optional[Structure] = None,
    level: str = "minimal",
    seed: int = 2023,
    machine: MachineSpec = HPC2_AMD,
    n_ranks: int = 8,
    rates: Optional[FaultRates] = None,
    schedule: Optional[Sequence[ScheduledFault]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    n_rows: int = 24,
    row_len: int = 6,
    rows_cap: int = 4,
) -> ChaosReport:
    """Run reference + faulted pipelines and report the comparison.

    With the default ``rates``/``schedule``, the run injects at least
    one rank failure and one persistently corrupted collective, forcing
    one reduction-scheme degradation, plus randomized cycle faults that
    exercise the drivers' checkpoint-restart.
    """
    structure = structure or hydrogen_molecule()
    settings = get_settings(level)
    if rates is None:
        rates = default_rates()
    if schedule is None:
        schedule = default_schedule(n_ranks)

    # ------------------------------------------------------------------
    # Fault-free reference
    # ------------------------------------------------------------------
    reference = drain(iter_physics(structure, settings))

    # ------------------------------------------------------------------
    # Faulted physics: SCF + CPSCF with checkpoint-restart
    # ------------------------------------------------------------------
    plan = FaultPlan(seed=seed, rates=rates, schedule=schedule)
    injector = CycleFaultInjector(plan)
    faulted = drain(iter_physics(structure, settings, fault_injector=injector))

    # ------------------------------------------------------------------
    # Faulted communication: resilient rho_multipole reduction
    # ------------------------------------------------------------------
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=(n_rows, row_len)) for _ in range(n_ranks)]
    serial = rows[0].copy()
    for a in rows[1:]:
        serial = serial + a  # rank-ascending, the collectives' order

    cluster = SimCluster(
        machine, n_ranks, fault_plan=plan, retry_policy=retry_policy
    )
    scheme = ResilientReduction(
        [
            PackedHierarchicalAllreduce(rows_cap=rows_cap),
            PackedAllreduce(rows_cap=rows_cap),
            BaselineRowwiseAllreduce(),
        ]
    )
    reduced, reduction_report = scheme.reduce(cluster, rows)
    err = float(np.abs(reduced - serial).max())

    return ChaosReport(
        seed=seed,
        machine=machine.name,
        n_ranks=n_ranks,
        polarizability=faulted.polarizability,
        reference_polarizability=reference.polarizability,
        scheme_used=reduction_report.scheme,
        reduction_max_abs_err=err,
        comm_stats=cluster.stats,
        degradations=list(cluster.stats.degradations),
        fault_events=list(cluster.fault_events) + list(injector.events),
        scf_restarts=faulted.ground_state.restarts,
        cpscf_restarts=sum(r.restarts for r in faulted.responses),
    )
