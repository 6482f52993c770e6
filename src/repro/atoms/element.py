"""Chemical element data for the species appearing in the paper's systems.

The paper simulates biomolecules (H, C, N, O, S) with all-electron NAO
basis sets.  Each element carries the data the basis/grid machinery
needs: nuclear charge, covalent radius (for neighbour detection and
Becke weights) and the size of its "light" NAO basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import GeometryError


@dataclass(frozen=True)
class Element:
    """Immutable per-species data.

    Attributes
    ----------
    symbol:
        Chemical symbol, e.g. ``"C"``.
    z:
        Nuclear charge (= number of electrons in the neutral atom).
    covalent_radius:
        Covalent radius in Bohr, used for bond detection and the
        Becke partition size-adjustment.
    n_basis_light:
        Number of NAO basis functions in the "light" set built by
        :mod:`repro.basis.sets` (kept here for fast counting at scale,
        must agree with the actual basis construction; tested).
    """

    symbol: str
    z: int
    covalent_radius: float
    n_basis_light: int


def _bohr(angstrom: float) -> float:
    from repro.constants import ANGSTROM_IN_BOHR

    return angstrom * ANGSTROM_IN_BOHR


#: Supported species.  ``n_basis_light`` mirrors the construction in
#: :func:`repro.basis.sets.light_basis_functions`: a minimal-plus-polarization
#: hydrogenic set — H: 1s+2s+2p (5), C/N/O: 1s..2p + 3s+3d (11),
#: S: 1s..3p + 4s+3d (15).
ELEMENTS: Dict[str, Element] = {
    "H": Element("H", 1, _bohr(0.31), 5),
    "C": Element("C", 6, _bohr(0.76), 11),
    "N": Element("N", 7, _bohr(0.71), 11),
    "O": Element("O", 8, _bohr(0.66), 11),
    "S": Element("S", 16, _bohr(1.05), 15),
}


def element(symbol: str) -> Element:
    """Look up one element by symbol.

    Raises
    ------
    GeometryError
        For species outside the supported biomolecular set.
    """
    try:
        return ELEMENTS[symbol]
    except KeyError:
        raise GeometryError(
            f"unsupported element {symbol!r}; supported: {sorted(ELEMENTS)}"
        ) from None
