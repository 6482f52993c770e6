"""The :class:`Structure` container — an immutable molecular geometry.

Coordinates are stored in Bohr.  A structure knows how to answer the
geometric queries the rest of the pipeline needs: neighbour lists,
bounding boxes, per-atom element data and electron counts.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.atoms.element import Element, element
from repro.errors import GeometryError


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

    def distance_matrix(self) -> np.ndarray:
        """Full ``(n, n)`` pairwise distance matrix (Bohr).

        Quadratic in atom count — intended for small systems; large
        systems should use :meth:`neighbors_within`.
        """
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        return np.linalg.norm(diff, axis=2)

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
