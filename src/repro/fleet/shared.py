"""Shared read-only substrate for fleets of molecules.

Two amortization layers sit here, both bit-exactness-safe because they
share *identical* density-independent data rather than recomputing it:

* :func:`register_basis_tables` — the per-species radial spline tables
  (knots, values, second derivatives) of a basis set are registered
  **once per distinct basis signature** in a
  :class:`~repro.runtime.shm.SharedTableRegistry` and reused, read-only,
  by every later molecule of the fleet;
* :class:`SubstrateCache` — molecules with the same geometry and grid
  settings (fleet groups that differ only in SCF/CPSCF settings or
  request seed) share one basis/grid/batch decomposition instead of
  rebuilding it per group.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dft.hamiltonian import Substrate, build_substrate
from repro.runtime.shm import SharedTableRegistry


def basis_signature(structure) -> str:
    """The distinct-basis-set key of a structure.

    Radial tables depend only on the element species (and the basis
    level, of which only ``light`` exists), so two molecules share one
    table set exactly when their element sets coincide.

    >>> from repro.atoms import hydrogen_molecule, water
    >>> basis_signature(hydrogen_molecule())
    'light:H'
    >>> basis_signature(water())
    'light:H|O'
    """
    return "light:" + "|".join(sorted(set(structure.symbols)))


def register_basis_tables(
    registry: SharedTableRegistry, structure
) -> Tuple[np.ndarray, ...]:
    """Register the structure's radial spline tables once per basis set.

    Returns the read-only knot/value/curvature arrays of every species
    shell the structure's basis uses.  The first molecule of a
    signature builds (or fetches from the species cache) the tables;
    every later molecule gets the same physical arrays, counted as a
    reuse by the registry.
    """
    from repro.basis.basis_set import _species_shells

    species = sorted(
        {(sym, elem.z) for sym, elem in zip(structure.symbols, structure.elements)}
    )

    def build() -> List[np.ndarray]:
        arrays: List[np.ndarray] = []
        for sym, z in species:
            for _shell, spline, _cutoff in _species_shells(sym, z):
                arrays.extend([spline.x, spline.y, spline.m])
        return arrays

    return registry.register(basis_signature(structure), build)


class SubstrateCache:
    """Per-geometry substrates shared by same-shape fleet groups.

    Keyed on ``(structure fingerprint, grid-settings key)``: building a
    substrate is deterministic, so the cached object carries exactly
    the arrays a fresh build would — sharing it cannot change bits.
    """

    def __init__(self) -> None:
        self._substrates: Dict[Tuple[str, str], Substrate] = {}
        self.built = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._substrates)

    def substrate(self, structure, settings) -> Substrate:
        """The (possibly shared) substrate for one structure + settings."""
        import json

        from repro.service.jobs import structure_fingerprint

        grids_key = json.dumps(
            settings.as_canonical_dict().get("grids", {}), sort_keys=True
        )
        key = (structure_fingerprint(structure), grids_key)
        cached = self._substrates.get(key)
        if cached is not None:
            self.reused += 1
            return cached
        built = build_substrate(structure, settings.grids)
        self._substrates[key] = built
        self.built += 1
        return built
