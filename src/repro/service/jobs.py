"""Job API: (molecule, RunSettings) requests with content-addressed keys.

A :class:`JobRequest` is what a service client submits.  Its cache
``key`` is derived from the same ingredients the Provenance block
stamps on every RunReport (DESIGN §10.5): the **code commit**, the
**seed**, and a canonical **settings hash** — plus the structure's own
fingerprint and the charge.  Two requests with equal physics therefore
share one key and one cached result, while changing *any* single
ingredient (an SCF tolerance, one coordinate, the screening threshold,
the commit)
yields a different key — the property pinned by the hypothesis suite
in ``tests/test_service_keys.py``.

>>> from repro.config import get_settings
>>> req = JobRequest(molecule="h2", settings=get_settings("minimal"))
>>> key = req.key(commit="abc1234")
>>> key == JobRequest(molecule="h2",
...                   settings=get_settings("minimal")).key(commit="abc1234")
True
>>> key.startswith("ck-")
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.atoms.builders import BUILTIN_MOLECULES
from repro.atoms.structure import Structure, electrons_at_charge, reject_coincident_nuclei
from repro.config import RunSettings, get_settings
from repro.errors import ServiceError
from repro.service.statestore import StateStore, SubmitOutcome

#: Coordinates are rounded to this many decimals (Bohr) before hashing
#: so a cache key never depends on sub-femtometre float noise.
_COORD_DECIMALS = 12


def canonical_settings(settings: RunSettings) -> Dict[str, Any]:
    """The sorted, JSON-friendly settings dict that cache keys hash.

    >>> canonical_settings(get_settings("minimal"))["level"]
    'minimal'
    """
    return settings.as_canonical_dict()


def settings_fingerprint(settings: RunSettings) -> str:
    """SHA-256 hex digest of the canonical settings document."""
    doc = json.dumps(canonical_settings(settings), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def structure_fingerprint(structure: Structure) -> str:
    """SHA-256 hex digest of (symbols, rounded coordinates)."""
    # ``+ 0.0`` turns a rounded -0.0 into 0.0: -1e-13 and 1e-13 hash alike.
    coords = np.round(np.asarray(structure.coords, dtype=float),
                      _COORD_DECIMALS) + 0.0
    doc = json.dumps(
        {"symbols": list(structure.symbols), "coords": coords.tolist()},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def cache_key(
    structure: Structure,
    settings: RunSettings,
    charge: int = 0,
    *,
    commit: Optional[str] = None,
    seed: Optional[int] = None,
) -> str:
    """Deterministic content-addressed key for one simulation request.

    ``commit`` defaults to this process's checkout commit (read once, by
    :func:`repro.obs.report.collect_provenance`), so results cached at
    one code version are never served at another.
    """
    if commit is None:
        from repro.obs.report import collect_provenance

        commit = collect_provenance().commit
    doc = json.dumps(
        {
            "structure": structure_fingerprint(structure),
            "settings": settings_fingerprint(settings),
            "charge": int(charge),
            "commit": commit,
            "seed": seed,
        },
        sort_keys=True,
    )
    return "ck-" + hashlib.sha256(doc.encode()).hexdigest()[:32]


def structure_to_dict(structure: Structure) -> Dict[str, Any]:
    """JSON-friendly geometry block a task payload carries."""
    return {
        "name": structure.name,
        "symbols": list(structure.symbols),
        "coords": np.asarray(structure.coords, dtype=float).tolist(),
    }


def structure_from_dict(data: Dict[str, Any]) -> Structure:
    """Rebuild the :class:`~repro.atoms.structure.Structure` a worker runs."""
    return Structure(
        data["symbols"], np.asarray(data["coords"], dtype=float),
        name=data.get("name", ""),
    )


@dataclass
class JobRequest:
    """One client request: a molecule plus the settings to run it under.

    ``molecule`` is either a built-in name (``"h2"``, ``"water"``) or a
    :class:`~repro.atoms.structure.Structure`.
    """

    molecule: Union[str, Structure]
    settings: RunSettings = field(default_factory=lambda: get_settings("light"))
    charge: int = 0
    client: str = "anon"
    priority: int = 0
    max_retries: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # A geometry, or a charge leaving it no electrons or more than its
        # basis holds, that no worker can run is refused here, before it is
        # keyed or journaled (built-in molecules are left to the worker).
        if isinstance(self.molecule, Structure):
            reject_coincident_nuclei(self.molecule)
            electrons_at_charge(self.molecule, self.charge)

    def structure(self) -> Structure:
        """The concrete geometry (resolving built-in names)."""
        if isinstance(self.molecule, Structure):
            return self.molecule
        try:
            return BUILTIN_MOLECULES[self.molecule]()
        except KeyError:
            raise ServiceError(
                f"unknown built-in molecule {self.molecule!r}; expected one "
                f"of {tuple(BUILTIN_MOLECULES)}"
            ) from None

    def key(self, commit: Optional[str] = None) -> str:
        """This request's content-addressed cache key."""
        return cache_key(
            self.structure(), self.settings, self.charge,
            commit=commit, seed=self.seed,
        )

    def payload(self) -> Dict[str, Any]:
        """The self-contained task payload a worker can execute."""
        return {
            "kind": "physics",
            "structure": structure_to_dict(self.structure()),
            "settings": canonical_settings(self.settings),
            "charge": int(self.charge),
            "seed": self.seed,
        }


def physics_from_payload(
    payload: Dict[str, Any]
) -> Tuple[Structure, RunSettings, int]:
    """Decode a task payload into the ``(structure, settings, charge)`` it runs.

    The inverse of :meth:`JobRequest.payload`, shared by every consumer
    of a payload (the physics wave, benchmarks).
    Raises :class:`~repro.errors.ServiceError` for any other ``kind``.

    >>> s, cfg, q = physics_from_payload(JobRequest("h2").payload())
    >>> s.name, cfg.level, q
    ('H2', 'light', 0)
    """
    kind = payload.get("kind")
    if kind != "physics":
        raise ServiceError(
            f"unsupported payload kind {kind!r}; expected 'physics'"
        )
    return (
        structure_from_dict(payload["structure"]),
        RunSettings.from_canonical_dict(payload["settings"]),
        int(payload.get("charge", 0)),
    )


def submit_job(
    store: StateStore,
    request: JobRequest,
    *,
    commit: Optional[str] = None,
    now: Optional[float] = None,
) -> SubmitOutcome:
    """Submit one request to a statestore (idempotently)."""
    return store.submit(
        request.payload(),
        key=request.key(commit=commit),
        client=request.client,
        priority=request.priority,
        max_retries=request.max_retries,
        now=now,
    )


def submit_batch(
    store: StateStore,
    requests: Iterable[JobRequest],
    *,
    commit: Optional[str] = None,
    now: Optional[float] = None,
) -> List[SubmitOutcome]:
    """Submit many requests in order; duplicates dedup onto one task.

    Outcomes are returned in submission order, so callers can line
    results up with their request list.
    """
    return [
        submit_job(store, req, commit=commit, now=now) for req in requests
    ]
