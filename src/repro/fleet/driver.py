"""Fleet driver: many molecules through one backend, bit-exactly.

The throughput idea of the paper's weak-scaling section turned sideways:
instead of one huge system across many ranks, many *small* requests
share one execution substrate.  Three amortizations compose, none of
which may change a single result bit:

1. **Shared read-only tables** — radial spline tables are registered
   once per distinct basis signature
   (:func:`repro.fleet.shared.register_basis_tables`) and geometry
   substrates once per distinct structure
   (:class:`repro.fleet.shared.SubstrateCache`);
2. **Physics dedup** — requests with identical physics payloads
   (structure + settings + charge; the seed is provenance only) are
   grouped by :func:`physics_fingerprint` and computed once, then each
   request's result document is stamped individually;
3. **Cross-molecule interleaving** — every group advances one SCF or
   CPSCF cycle per round through the generator seams
   (:meth:`~repro.dft.scf.SCFDriver.iter_cycles`,
   :meth:`~repro.dfpt.response.DFPTSolver.iter_directions`), so a shared
   :class:`~repro.fleet.device.FleetDevice` can fuse the same-name
   kernel launches of different molecules at each round boundary.

Each group advances the very generator
(:func:`~repro.core.simulator.iter_physics`) that an isolated
:meth:`~repro.core.simulator.PerturbationSimulator.run_physics` drains,
so its floating-point sequence is that call's sequence — what the fleet
parity suite pins byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from repro.backends.batched import DEFAULT_CACHE_BYTES, BatchedBackend, BlockCache
from repro.fleet.device import FleetDevice
from repro.fleet.shared import SubstrateCache, register_basis_tables
from repro.runtime.shm import SharedTableRegistry


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
    task_id: str = ""


def fleet_tasks_from_requests(requests, commit: str = "fleet") -> List[FleetTask]:
    """Wrap :class:`~repro.service.jobs.JobRequest` objects as fleet tasks."""
    return [
        FleetTask(key=req.key(commit), payload=req.payload()) for req in requests
    ]


def physics_fingerprint(payload: Dict[str, Any]) -> str:
    """The dedup key of one physics payload.

    Hashes exactly the fields that determine the computed numbers —
    structure, canonical settings, charge.  The request ``seed`` is
    deliberately excluded: it only stamps provenance, so two requests
    differing only by seed share one computation.

    >>> a = physics_fingerprint({"structure": {"x": 1}, "settings": {}, "seed": 1})
    >>> b = physics_fingerprint({"structure": {"x": 1}, "settings": {}, "seed": 2})
    >>> c = physics_fingerprint({"structure": {"x": 2}, "settings": {}})
    >>> a == b, a == c
    (True, False)
    """
    doc = {
        "structure": payload.get("structure"),
        "settings": payload.get("settings"),
        "charge": int(payload.get("charge", 0)),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
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
    therefore the interleaved execution schedule — invariant under
    request permutation, one of the fleet parity suite's properties.

    >>> t = lambda k, x: FleetTask(key=k, payload={"structure": {"x": x}})
    >>> plan = plan_fleet([t("a", 1), t("b", 1), t("c", 2)])
    >>> len(plan.groups), plan.n_requests
    (2, 3)
    >>> plan.canonical() == plan_fleet([t("c", 2), t("b", 1), t("a", 1)]).canonical()
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
class _GroupOutcome:
    """One group's finished physics, ready for per-request stamping."""

    structure: Any
    settings: Any
    physics: Any


@dataclass
class FleetReport:
    """Deterministic account of one fleet run."""

    n_requests: int = 0
    n_groups: int = 0
    rounds: int = 0
    registry: Dict[str, int] = field(default_factory=dict)
    substrates: Dict[str, int] = field(default_factory=dict)
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    device: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FleetOutcome:
    """Per-request result payloads plus the run's shared-resource report."""

    results: Dict[str, Dict[str, Any]]
    errors: Dict[str, str]
    report: FleetReport


class FleetDriver:
    """Run many physics requests through one shared execution substrate.

    The driver owns the cross-run :class:`SharedTableRegistry` (basis
    tables outlive individual fleet waves — a service worker reuses
    them across :meth:`run_tasks` calls), while per-run resources (the
    substrate cache, the shared block cache, the fused device) are
    fresh each run so reports stay attributable.
    """

    def __init__(
        self,
        machine: str = "hpc2",
        max_cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.machine = machine
        self.max_cache_bytes = int(max_cache_bytes)
        self.registry = SharedTableRegistry()

    # ------------------------------------------------------------------
    def _backend_for(self, settings, scope: str):
        """One molecule's backend, wired into the run's shared resources."""
        from repro.backends.registry import create_backend
        from repro.backends.device import DeviceBackend

        name = settings.backend
        if name == "numpy":
            return BatchedBackend(cache=self._cache, scope=scope)
        if name == "device":
            return DeviceBackend(device=self._device)
        return create_backend(name)

    def _group_pipeline(self, group: FleetGroup):
        """Generator running one group's physics, one cycle per ``next()``.

        Decodes the payload, picks the shared substrate and backend and
        delegates to :func:`~repro.core.simulator.iter_physics` — the
        same generator a sequential ``run_physics()`` drains — whose
        per-cycle suspension points ``yield from`` threads out to the
        round-robin scheduler.
        """
        from repro.core.simulator import iter_physics
        from repro.service.jobs import physics_from_payload

        structure, settings, charge = physics_from_payload(group.tasks[0].payload)
        register_basis_tables(self.registry, structure)
        physics = yield from iter_physics(
            structure,
            settings,
            charge,
            backend=self._backend_for(settings, scope=group.fingerprint),
            substrate=self._substrates.substrate(structure, settings),
        )
        return _GroupOutcome(
            structure=structure, settings=settings, physics=physics
        )

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Iterable[FleetTask]) -> FleetOutcome:
        """Execute a fleet of tasks; per-request payloads keyed by task key.

        Groups are advanced round-robin, one cycle each per round; the
        shared device prices each round's launches as fused groups at
        the round boundary.  A group that raises poisons only its own
        requests (recorded in ``errors``), never its neighbours.
        """
        from repro.runtime.machines import machine_by_name
        from repro.service.worker import result_payload

        plan = plan_fleet(tasks)
        self._substrates = SubstrateCache()
        self._cache = BlockCache(self.max_cache_bytes)
        self._device = FleetDevice(machine_by_name(self.machine).accelerator)

        active = [(g, self._group_pipeline(g)) for g in plan.groups]
        outcomes: Dict[str, _GroupOutcome] = {}
        failures: Dict[str, str] = {}
        rounds = 0
        while active:
            rounds += 1
            survivors = []
            for group, gen in active:
                try:
                    next(gen)
                except StopIteration as stop:
                    outcomes[group.fingerprint] = stop.value
                except Exception as exc:  # noqa: BLE001 — isolate group failures
                    failures[group.fingerprint] = (
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    survivors.append((group, gen))
            # Round boundary: fuse and price every launch the round queued.
            self._device.end_round()
            active = survivors

        results: Dict[str, Dict[str, Any]] = {}
        errors: Dict[str, str] = {}
        profiles: Dict[str, Dict[str, Any]] = {}
        for group in plan.groups:
            out = outcomes.get(group.fingerprint)
            if out is None:
                message = failures.get(group.fingerprint, "fleet group failed")
                for task in group.tasks:
                    errors[task.key] = message
                continue
            profile = out.physics.backend_profile
            if profile is not None:
                profiles[group.fingerprint] = profile.as_dict()
            for task in group.tasks:
                results[task.key] = result_payload(
                    task, out.structure, out.settings, out.physics
                )

        report = FleetReport(
            n_requests=plan.n_requests,
            n_groups=len(plan.groups),
            rounds=rounds,
            registry=self.registry.stats(),
            substrates={
                "built": self._substrates.built,
                "reused": self._substrates.reused,
            },
            profiles=profiles,
            cache={
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "peak_bytes": self._cache.peak_bytes,
            },
            device=self._device.model_stats(),
        )
        return FleetOutcome(results=results, errors=errors, report=report)
