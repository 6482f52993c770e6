"""Physics waves: every physics task a worker runs, one wave at a time.

The throughput idea of the paper's weak-scaling section turned sideways:
instead of one huge system across many ranks, many *small* requests
share what they can, without changing a single result bit:

1. **Physics dedup** — tasks with the same physics (the service's
   structure and settings fingerprints plus the charge; the seed is
   provenance only) are grouped by :func:`physics_fingerprint` and
   computed once, then each task's result document is stamped
   individually;
2. **Shared read-only substrates** — geometry substrates are built
   once per distinct structure (:class:`SubstrateCache`).

:func:`run_wave` runs the groups one after another, in fingerprint
order, each through :func:`~repro.core.simulator.run_physics` — the call
an isolated :meth:`~repro.core.simulator.PerturbationSimulator.run_physics`
makes.  A sequential job is the wave of one
(:func:`~repro.service.worker.run_physics_task`).  Each group's
payloads are its sequential run's byte for byte, and its builder,
Hartree plans and kept blocks are freed by reference counting when the
group returns, before the next group starts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.dft.hamiltonian import Substrate, build_substrate

#: One task's outcome: its stamped result payload, or the exception its
#: group raised.
Outcome = Tuple[Optional[Dict[str, Any]], Optional[Exception]]


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
    return _decode(payload).fingerprint


class _Decoded(NamedTuple):
    """One payload decoded once for its whole wave."""

    #: The dedup key (:func:`physics_fingerprint`).
    fingerprint: str
    #: The structure's service fingerprint, or ``None`` if undecodable.
    structure_key: Optional[str]
    #: ``(structure, settings, charge)``, or the error decoding raised.
    physics: Union[Tuple[Any, Any, int], Exception]


def _decode(payload: Dict[str, Any]) -> _Decoded:
    """Decode *payload* and key it; an undecodable one carries its error."""
    from repro.service.jobs import (
        physics_from_payload,
        settings_fingerprint,
        structure_fingerprint,
    )

    try:
        physics = physics_from_payload(payload)
        structure_key = structure_fingerprint(physics[0])
        doc = [structure_key, settings_fingerprint(physics[1]), physics[2]]
    except Exception as exc:  # noqa: BLE001 — its own group, whose run raises it
        physics, structure_key, doc = exc, None, ["undecodable", payload]
    fingerprint = hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]
    return _Decoded(fingerprint, structure_key, physics)


class SubstrateCache:
    """Per-geometry substrates shared by the same-shape groups of a wave.

    Keyed on ``(structure fingerprint, grid-settings key)``: building a
    substrate is deterministic, so the cached object carries exactly
    the arrays a fresh build would — sharing it cannot change bits.
    The per-species radial spline tables need no such layer: the basis
    builder's species cache already hands every molecule of the process
    the same read-only arrays.
    """

    def __init__(self) -> None:
        self._substrates: Dict[Tuple[str, str], Substrate] = {}

    def substrate(self, structure_key: str, structure, settings) -> Substrate:
        """The (possibly shared) substrate for one structure + settings.

        *structure_key* is the structure's service fingerprint, computed
        once per task when its payload is decoded.
        """
        grids_key = json.dumps(
            settings.as_canonical_dict().get("grids", {}), sort_keys=True
        )
        key = (structure_key, grids_key)
        if key not in self._substrates:
            self._substrates[key] = build_substrate(structure, settings.grids)
        return self._substrates[key]


def run_wave(tasks: Sequence[Any]) -> List[Outcome]:
    """One ``(payload, exception)`` pair per task, in task order.

    *tasks* carry a ``key`` and a physics ``payload`` (a statestore
    :class:`~repro.service.statestore.TaskRecord`).  The groups run in
    fingerprint order, not task order, so the wave's work does not
    depend on submission order.  A group that raises poisons only its
    own tasks.

    >>> from types import SimpleNamespace
    >>> ((payload, exc),) = run_wave([SimpleNamespace(key="k", payload={"kind": "noop"})])
    >>> payload, type(exc).__name__
    (None, 'ServiceError')
    """
    decoded = [_decode(task.payload) for task in tasks]
    groups: Dict[str, List[int]] = {}
    for i, entry in enumerate(decoded):
        groups.setdefault(entry.fingerprint, []).append(i)
    substrates = SubstrateCache()
    outcomes: List[Outcome] = [(None, None)] * len(tasks)
    for fingerprint in sorted(groups):
        members = groups[fingerprint]
        try:
            payloads = _run_group(
                [tasks[i] for i in members], [decoded[i] for i in members], substrates
            )
        except Exception as exc:  # noqa: BLE001 — isolate group failures
            # Without its traceback the error holds none of the group's
            # frames, so a failed group's builder dies here too.
            for i in members:
                outcomes[i] = (None, exc.with_traceback(None))
        else:
            for i, payload in zip(members, payloads):
                outcomes[i] = (payload, None)
    return outcomes


def _run_group(
    tasks: Sequence[Any], decoded: Sequence[_Decoded], substrates: SubstrateCache
) -> List[Dict[str, Any]]:
    """One group's stamped payloads, in the group's task order.

    Everything the run built is local to this call, so it is garbage as
    soon as the call returns.
    """
    from repro.core import simulator
    from repro.service.worker import result_payload

    first = decoded[0]
    if isinstance(first.physics, Exception):
        raise first.physics
    structure, settings, charge = first.physics
    physics = simulator.run_physics(
        structure, settings, charge,
        substrate=substrates.substrate(first.structure_key, structure, settings),
    )
    # Each task is stamped with its own structure: a renamed request in
    # a group keeps its name.
    return [
        result_payload(task, own.physics[0], settings, physics)
        for task, own in zip(tasks, decoded)
    ]
