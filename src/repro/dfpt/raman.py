"""Raman activities: polarizability derivatives along normal modes.

Bridges the two halves of the pipeline exactly like the paper's SC'21
predecessor ("all-electron ab initio simulation of Raman spectra"):
DFPT polarizabilities (this paper's machinery) differentiated along the
harmonic normal modes give the Raman activity of each mode,

    S_k = 45 a_k'^2 + 7 gamma_k'^2 ,

with ``a'`` the isotropic and ``gamma'`` the anisotropic invariant of
``d alpha / d Q_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.atoms.structure import Structure
from repro.config import RunSettings, get_settings
from repro.core.simulator import PerturbationSimulator
from repro.dfpt.vibrations import AMU_IN_ME, NormalModes, ATOMIC_MASSES


@dataclass
class RamanSpectrum:
    """Frequencies and activities of the vibrational modes."""

    frequencies_cm1: np.ndarray  # vibrational modes only
    activities: np.ndarray  # A^4/amu-style relative units (a.u. based)

    def dominant_mode(self) -> int:
        """Index of the strongest Raman-active mode."""
        return int(np.argmax(self.activities))


def _alpha_at(structure: Structure, settings: RunSettings, charge: int) -> np.ndarray:
    sim = PerturbationSimulator(structure, settings, charge=charge)
    return sim.run_physics().polarizability


def raman_spectrum(
    structure: Structure,
    modes: NormalModes,
    settings: Optional[RunSettings] = None,
    step: float = 1e-2,
    charge: int = 0,
    n_rigid: int = 6,
) -> RamanSpectrum:
    """Activities of every vibrational mode by central differences.

    Parameters
    ----------
    structure:
        The equilibrium geometry (must match *modes*).
    modes:
        Harmonic analysis from :func:`repro.dfpt.vibrations.normal_modes`.
    step:
        Dimensionless normal-coordinate displacement amplitude.
    n_rigid:
        Number of leading (translation/rotation) modes to skip — 5 for
        linear molecules, 6 otherwise.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    settings = settings or get_settings("minimal")
    masses = np.array(
        [ATOMIC_MASSES[s] * AMU_IN_ME for s in structure.symbols]
    )
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(masses, 3))

    freqs = modes.frequencies_cm1[n_rigid:]
    activities: List[float] = []
    for k in range(n_rigid, modes.modes.shape[1]):
        # Cartesian displacement of the mass-weighted mode.
        direction = (modes.modes[:, k] * inv_sqrt_m).reshape(-1, 3)
        norm = np.linalg.norm(direction)
        direction = direction / norm
        plus = Structure(
            structure.symbols, structure.coords + step * direction, structure.name
        )
        minus = Structure(
            structure.symbols, structure.coords - step * direction, structure.name
        )
        d_alpha = (_alpha_at(plus, settings, charge) - _alpha_at(minus, settings, charge)) / (
            2.0 * step
        )
        a_iso = np.trace(d_alpha) / 3.0
        sym = 0.5 * (d_alpha + d_alpha.T)
        gamma2 = max(
            0.0, (3.0 * np.trace(sym @ sym) - np.trace(sym) ** 2) / 2.0
        )
        activities.append(45.0 * a_iso**2 + 7.0 * gamma2)

    return RamanSpectrum(
        frequencies_cm1=freqs, activities=np.array(activities)
    )
