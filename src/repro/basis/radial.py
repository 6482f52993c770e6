"""Logarithmic radial grids for tabulating atom-centered functions.

All radial quantities (basis radial parts, multipole densities, partial
Hartree potentials) live on per-species logarithmic grids
``r_i = r_min * (r_max / r_min)^(i / (n-1))`` — dense near the nucleus
where all-electron functions vary fast, sparse in the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LogRadialGrid:
    """A logarithmic radial mesh with quadrature weights.

    Attributes
    ----------
    r:
        Mesh points, strictly increasing, in Bohr.
    dr:
        ``dr/di`` at each mesh point: for the log mesh this is ``h * r``
        with ``h = ln(r_max/r_min)/(n-1)``, so trapezoid sums in the
        index variable integrate ``f(r) dr`` correctly.
    """

    r: np.ndarray
    dr: np.ndarray = field(repr=False)

    @staticmethod
    def make(r_min: float, r_max: float, n: int) -> "LogRadialGrid":
        """Construct the mesh from its extents and point count."""
        if not (0.0 < r_min < r_max):
            raise ValueError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
        if n < 4:
            raise ValueError(f"radial grid needs >= 4 points, got {n}")
        h = np.log(r_max / r_min) / (n - 1)
        i = np.arange(n, dtype=float)
        r = r_min * np.exp(h * i)
        r_arr = np.asarray(r)
        r_arr.setflags(write=False)
        dr = h * r_arr
        dr.setflags(write=False)
        return LogRadialGrid(r=r_arr, dr=dr)

    @staticmethod
    def for_species(z: int, n: int, r_max: float = 20.0) -> "LogRadialGrid":
        """Species-adapted mesh: inner point scales like 1/Z.

        Heavier nuclei need resolution closer to the origin (their 1s
        orbital decays like ``exp(-Z r)``).
        """
        r_min = 1e-4 / max(z, 1)
        return LogRadialGrid.make(r_min, r_max, n)

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def integrate(self, f: np.ndarray) -> np.ndarray:
        """Trapezoid integral of ``f(r) dr`` over the whole mesh.

        *f* may have leading radial axis plus trailing axes; the result
        drops the radial axis.  Note this integrates ``f dr`` — callers
        integrating densities must fold in the ``r^2`` volume factor.
        """
        f = np.asarray(f)
        if f.shape[0] != self.n:
            raise ValueError(f"field has {f.shape[0]} radial values, grid has {self.n}")
        w = self.dr.reshape(-1, *([1] * (f.ndim - 1)))
        fw = f * w
        return np.trapz(fw, axis=0) if not hasattr(np, "trapezoid") else np.trapezoid(fw, axis=0)
