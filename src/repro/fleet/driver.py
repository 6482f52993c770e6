"""Fleet waves: many physics requests, each distinct physics computed once.

The throughput idea of the paper's weak-scaling section turned sideways:
instead of one huge system across many ranks, many *small* requests
share what they can.  Two amortizations compose, neither of which may
change a single result bit:

1. **Physics dedup** — requests with the same physics (the service's
   structure and settings fingerprints plus the charge; the seed is
   provenance only) are grouped by :func:`physics_fingerprint` and
   computed once, then each request's result document is stamped
   individually;
2. **Shared read-only substrates** — geometry substrates are built
   once per distinct structure
   (:class:`repro.fleet.shared.SubstrateCache`).

:func:`run_fleet` then runs the groups one after another, in
fingerprint order, each through :func:`~repro.core.simulator.run_physics`
— the call an isolated
:meth:`~repro.core.simulator.PerturbationSimulator.run_physics` makes —
on a fresh host engine.  Each group's payloads are its sequential run's
byte for byte (what the fleet parity suite pins), and its builder,
Hartree plans and kept blocks are freed by reference counting when the
group returns, before the next group starts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.fleet.shared import SubstrateCache


@dataclass
class FleetTask:
    """The slice of a statestore task a fleet run needs.

    Mirrors the :class:`~repro.service.statestore.TaskRecord` fields
    that :func:`~repro.service.worker.result_payload` reads (``key``,
    ``payload``), so fleet results are byte-identical to worker
    results whether the task came from a store or straight from a
    :class:`~repro.service.jobs.JobRequest`.
    """

    key: str
    payload: Dict[str, Any]


def fleet_tasks_from_requests(requests, commit: str = "fleet") -> List[FleetTask]:
    """Wrap :class:`~repro.service.jobs.JobRequest` objects as fleet tasks."""
    return [
        FleetTask(key=req.key(commit), payload=req.payload()) for req in requests
    ]


def physics_fingerprint(payload: Dict[str, Any]) -> str:
    """The dedup key of one physics payload.

    Built from what the service's cache key is built from —
    :func:`~repro.service.jobs.structure_fingerprint`,
    :func:`~repro.service.jobs.settings_fingerprint` and the charge —
    so only :mod:`repro.service.jobs` decides what counts as the same
    physics: a structure's name, its signed zeros and its sub-rounding
    noise do not split a group.  A payload that does not decode forms
    its own group, so the error poisons only its own requests.  The
    request ``seed`` is deliberately excluded: it only stamps
    provenance, so two requests differing only by seed share one
    computation.

    >>> from repro.service.jobs import JobRequest
    >>> a = physics_fingerprint(JobRequest("h2", seed=1).payload())
    >>> b = physics_fingerprint(JobRequest("h2", seed=2).payload())
    >>> c = physics_fingerprint(JobRequest("water").payload())
    >>> a == b, a == c
    (True, False)
    """
    from repro.service.jobs import (
        physics_from_payload,
        settings_fingerprint,
        structure_fingerprint,
    )

    try:
        structure, settings, charge = physics_from_payload(payload)
        doc = [structure_fingerprint(structure), settings_fingerprint(settings), charge]
    except Exception:  # noqa: BLE001 — its own group, whose pipeline raises it
        doc = ["undecodable", payload]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


@dataclass
class FleetGroup:
    """All requests sharing one physics fingerprint (computed once)."""

    fingerprint: str
    tasks: List[FleetTask]


@dataclass
class FleetPlan:
    """Deterministic grouping of a fleet's tasks."""

    groups: List[FleetGroup]

    @property
    def n_requests(self) -> int:
        """Total requests across every group."""
        return sum(len(g.tasks) for g in self.groups)

    def canonical(self) -> Dict[str, List[str]]:
        """Fingerprint -> sorted request keys (permutation-invariant)."""
        return {
            g.fingerprint: sorted(t.key for t in g.tasks) for g in self.groups
        }


def plan_fleet(tasks: Iterable[FleetTask]) -> FleetPlan:
    """Group tasks by physics fingerprint, ordered by fingerprint.

    Sorting by fingerprint (not submission order) makes the plan — and
    therefore the order the groups run in — invariant under request
    permutation, one of the fleet parity suite's properties.

    >>> from repro.service.jobs import JobRequest
    >>> t = lambda k, m: FleetTask(key=k, payload=JobRequest(m).payload())
    >>> plan = plan_fleet([t("a", "h2"), t("b", "h2"), t("c", "water")])
    >>> len(plan.groups), plan.n_requests
    (2, 3)
    >>> plan.canonical() == plan_fleet([t("c", "water"), t("b", "h2"), t("a", "h2")]).canonical()
    True
    """
    by_fp: Dict[str, List[FleetTask]] = {}
    for task in tasks:
        by_fp.setdefault(physics_fingerprint(task.payload), []).append(task)
    return FleetPlan(
        groups=[
            FleetGroup(fingerprint=fp, tasks=by_fp[fp])
            for fp in sorted(by_fp)
        ]
    )


@dataclass
class FleetReport:
    """Deterministic account of one fleet run: requests, the groups they
    formed, substrate reuse and each group's backend profile."""

    n_requests: int = 0
    n_groups: int = 0
    substrates: Dict[str, int] = field(default_factory=dict)
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class FleetOutcome:
    """Per-request result payloads plus the run's report."""

    results: Dict[str, Dict[str, Any]]
    errors: Dict[str, str]
    report: FleetReport


def _run_group(
    group: FleetGroup, substrates: SubstrateCache
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """One group's stamped payloads by task key, and its backend profile.

    Everything the run built is local to this call, so it is garbage as
    soon as the call returns.
    """
    from repro.core.simulator import run_physics
    from repro.service.jobs import physics_from_payload, structure_from_dict
    from repro.service.worker import result_payload

    structure, settings, charge = physics_from_payload(group.tasks[0].payload)
    physics = run_physics(
        structure, settings, charge,
        substrate=substrates.substrate(structure, settings),
    )
    # Each request is stamped with its own structure: a renamed request
    # in a group keeps its name.
    payloads = {
        task.key: result_payload(
            task, structure_from_dict(task.payload["structure"]), settings, physics
        )
        for task in group.tasks
    }
    return payloads, physics.backend_profile.as_dict()


def run_fleet(tasks: Iterable[FleetTask]) -> FleetOutcome:
    """Execute a fleet of tasks; per-request payloads keyed by task key.

    The groups of :func:`plan_fleet` run one after another, sharing the
    wave's substrates.  A group that raises poisons only its own
    requests (recorded in ``errors``), never its neighbours.
    """
    plan = plan_fleet(tasks)
    substrates = SubstrateCache()
    results: Dict[str, Dict[str, Any]] = {}
    errors: Dict[str, str] = {}
    profiles: Dict[str, Dict[str, Any]] = {}
    for group in plan.groups:
        try:
            payloads, profiles[group.fingerprint] = _run_group(group, substrates)
        except Exception as exc:  # noqa: BLE001 — isolate group failures
            for task in group.tasks:
                errors[task.key] = f"{type(exc).__name__}: {exc}"
        else:
            results.update(payloads)
    report = FleetReport(
        n_requests=plan.n_requests,
        n_groups=len(plan.groups),
        substrates={"built": substrates.built, "reused": substrates.reused},
        profiles=profiles,
    )
    return FleetOutcome(results=results, errors=errors, report=report)
