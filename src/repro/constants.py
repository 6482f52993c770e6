"""Physical constants and unit conversions (Hartree atomic units internally).

All quantum-mechanical quantities inside :mod:`repro` are expressed in
Hartree atomic units: lengths in Bohr, energies in Hartree, electric
fields in Hartree/(e*Bohr).  Geometry files (FHI-aims ``geometry.in``
convention) use Angstrom; the factors below are the single source of
truth for crossing that boundary.
"""

from __future__ import annotations

#: Bohr radius in Angstrom (CODATA 2018).
BOHR_IN_ANGSTROM: float = 0.529177210903

#: Angstrom expressed in Bohr.
ANGSTROM_IN_BOHR: float = 1.0 / BOHR_IN_ANGSTROM

#: Hartree energy in electronvolt (CODATA 2018).
HARTREE_IN_EV: float = 27.211386245988

#: Boltzmann constant in Hartree / Kelvin.
KB_HARTREE_PER_K: float = 3.166811563e-6

#: Polarizability conversion: atomic units (Bohr^3) to Angstrom^3.
POLARIZABILITY_AU_IN_A3: float = BOHR_IN_ANGSTROM**3

#: Machine epsilon guard used when dividing by eigenvalue gaps.
EIGENVALUE_GAP_FLOOR: float = 1e-10
