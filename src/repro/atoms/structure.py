"""The :class:`Structure` container — an immutable molecular geometry.

Coordinates are stored in Bohr.  A structure knows how to answer the
geometric queries the rest of the pipeline needs: neighbour lists,
bounding boxes, per-atom element data and electron counts.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.atoms.element import Element, element
from repro.errors import GeometryError, SCFConvergenceError
from repro.utils.neighbors import sphere_overlaps


class Structure:
    """A finite (non-periodic) molecular system.

    Parameters
    ----------
    symbols:
        Chemical symbols, one per atom.
    coords:
        ``(n_atoms, 3)`` Cartesian coordinates in Bohr.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(
        self,
        symbols: Sequence[str],
        coords: np.ndarray,
        name: str = "",
    ) -> None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise GeometryError(f"coords must be (n, 3), got {coords.shape}")
        if len(symbols) != coords.shape[0]:
            raise GeometryError(
                f"{len(symbols)} symbols but {coords.shape[0]} coordinate rows"
            )
        if coords.shape[0] == 0:
            raise GeometryError("structure must contain at least one atom")
        # count_nonzero: half the cost of .all() on the few atoms a submit builds.
        if np.count_nonzero(np.isfinite(coords)) != coords.size:
            bad = int(np.flatnonzero(~np.isfinite(coords).all(axis=1))[0])
            raise GeometryError(f"atom {bad} has a non-finite coordinate {coords[bad].tolist()}")
        self._symbols: Tuple[str, ...] = tuple(symbols)
        self._elements: Tuple[Element, ...] = tuple(element(s) for s in symbols)
        self._coords = coords.copy()
        self._coords.setflags(write=False)
        self.name = name or f"{coords.shape[0]}-atom system"

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._symbols)

    @property
    def n_atoms(self) -> int:
        """Number of atoms."""
        return len(self._symbols)

    @property
    def symbols(self) -> Tuple[str, ...]:
        """Chemical symbols in atom order."""
        return self._symbols

    @property
    def elements(self) -> Tuple[Element, ...]:
        """Resolved :class:`Element` records in atom order."""
        return self._elements

    @property
    def coords(self) -> np.ndarray:
        """Read-only ``(n_atoms, 3)`` coordinates in Bohr."""
        return self._coords

    @property
    def nuclear_charges(self) -> np.ndarray:
        """Vector of nuclear charges Z."""
        return np.array([e.z for e in self._elements], dtype=float)

    @property
    def n_electrons(self) -> int:
        """Total electron count of the neutral system."""
        return int(sum(e.z for e in self._elements))

    def n_basis_functions(self, level: str = "light") -> int:
        """Total NAO basis size at the given settings level."""
        if level != "light":
            raise GeometryError(f"only 'light' basis counting supported, got {level!r}")
        return int(sum(e.n_basis_light for e in self._elements))

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    def bounding_box(self, padding: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box ``(lo, hi)`` with optional padding (Bohr)."""
        lo = self._coords.min(axis=0) - padding
        hi = self._coords.max(axis=0) + padding
        return lo, hi

    def centroid(self) -> np.ndarray:
        """Unweighted geometric centre."""
        return self._coords.mean(axis=0)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between atoms *i* and *j* (Bohr)."""
        return float(np.linalg.norm(self._coords[i] - self._coords[j]))

    def neighbors_within(self, i: int, cutoff: float) -> np.ndarray:
        """Indices of atoms within *cutoff* Bohr of atom *i* (excluding *i*)."""
        d = np.linalg.norm(self._coords - self._coords[i], axis=1)
        mask = (d <= cutoff) & (np.arange(self.n_atoms) != i)
        return np.nonzero(mask)[0]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translated(self, shift: Iterable[float]) -> "Structure":
        """Return a copy translated by *shift* (Bohr)."""
        shift = np.asarray(list(shift), dtype=float)
        return Structure(self._symbols, self._coords + shift, name=self.name)

    def centered(self) -> "Structure":
        """Return a copy with the centroid at the origin."""
        return self.translated(-self.centroid())

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "Structure":
        """Return a new structure containing only the selected atoms."""
        indices = list(indices)
        if not indices:
            raise GeometryError("subset must keep at least one atom")
        symbols = [self._symbols[i] for i in indices]
        return Structure(symbols, self._coords[indices], name=name or self.name)

    def __repr__(self) -> str:
        from collections import Counter

        counts = Counter(self._symbols)
        formula = "".join(f"{s}{counts[s]}" for s in sorted(counts))
        return f"Structure({self.name!r}, {formula}, n_atoms={self.n_atoms})"


#: Up to this many atoms the pairs are compared one by one, beyond it
#: through the cell list.  A service submit runs the check inline, and a
#: cell-list call costs ~0.3 ms however few the atoms (2-8 atoms: 2-10 us
#: one by one).
_PAIRWISE_ATOMS = 32


def electrons_at_charge(structure: Structure, charge: int) -> int:
    """Electrons of *structure* at *charge*: SCFConvergenceError when none
    are left or more than its basis holds at two per function.

    Called with :func:`reject_coincident_nuclei` before anything is built
    or journaled.  An odd count is left to the restricted SCF driver,
    which refuses it the same way.

    >>> from repro.atoms import hydrogen_molecule
    >>> electrons_at_charge(hydrogen_molecule(), -2)
    4
    """
    n = structure.n_electrons - int(charge)
    capacity = 2 * structure.n_basis_functions()
    if not 0 < n <= capacity:
        raise SCFConvergenceError(
            f"no electrons left with charge {charge}" if n <= 0 else
            f"{n} electrons at charge {charge}, more than the {capacity} "
            "its basis holds",
            iterations=0, residual=0.0,
        )
    return n


def reject_coincident_nuclei(structure: Structure) -> None:
    """GeometryError naming two nuclei closer than a quarter of the sum of
    their covalent radii.

    Every entry point that accepts a geometry for a run calls it before
    anything is built or journaled: the SCF driver before any grid or
    basis, a service submit before the task reaches the store.  The
    bound is far below any bond (H2 sits at 2.4x the sum) and far above
    the distances where the Becke partition divides by ~0, the overlap
    loses rank or the SCF "converges" on a ~1e6 Ha nuclear repulsion.
    """
    reach = [0.25 * e.covalent_radius for e in structure.elements]
    n = structure.n_atoms
    if n <= _PAIRWISE_ATOMS:
        xyz = structure.coords.tolist()
        pairs = (
            (i, j) for i in range(n) for j in range(i + 1, n)
            if math.dist(xyz[i], xyz[j]) <= reach[i] + reach[j]
        )
    else:
        indptr, cols = sphere_overlaps(structure.coords, reach, structure.coords, reach)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        pairs = ((i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j)
    for i, j in pairs:  # the first pair in (i, j) order
        raise GeometryError(
            f"atoms {i} ({structure.symbols[i]}) and {j} ({structure.symbols[j]}) "
            f"are {structure.distance(i, j):.3g} Bohr apart, closer than "
            f"{reach[i] + reach[j]:.3g} (0.25 x the sum of their covalent radii)"
        )
