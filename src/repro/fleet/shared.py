"""Per-geometry substrates shared by the groups of one fleet.

Molecules with the same geometry and grid settings (fleet groups that
differ only in SCF/CPSCF settings) share one basis/grid/batch
decomposition instead of rebuilding it per group.  The per-species
radial spline tables need no fleet layer: the basis builder's species
cache (:func:`repro.basis.basis_set._species_shells`) already hands
every molecule of the process the same read-only arrays.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.dft.hamiltonian import Substrate, build_substrate


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
