"""Numeric atom-centered orbital (NAO) basis machinery.

Everything the all-electron pipeline needs to represent Kohn-Sham states
in the finite basis of Eq. (4): logarithmic radial grids, our own cubic
spline kernel (the object of the paper's spline-reuse optimization),
real spherical harmonics for the multipole expansion, and the per-element
"light" basis sets.
"""

from repro.basis.spline import CubicSpline, spline_coefficient_nbytes
from repro.basis.radial import LogRadialGrid
from repro.basis.ylm import real_spherical_harmonics, n_lm, lm_index
from repro.basis.solid_harmonics import (
    MAX_BASIS_L,
    solid_harmonics,
    solid_harmonics_with_gradients,
)
from repro.basis.sets import RadialShell, light_shells, radial_function
from repro.basis.basis_set import BasisFunction, BasisSet, build_basis

__all__ = [
    "CubicSpline",
    "spline_coefficient_nbytes",
    "LogRadialGrid",
    "real_spherical_harmonics",
    "n_lm",
    "lm_index",
    "MAX_BASIS_L",
    "solid_harmonics",
    "solid_harmonics_with_gradients",
    "RadialShell",
    "light_shells",
    "radial_function",
    "BasisFunction",
    "BasisSet",
    "build_basis",
]
