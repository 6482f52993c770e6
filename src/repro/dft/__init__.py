"""Ground-state all-electron DFT engine (the substrate of Fig. 1's cycle).

Provides the pieces the perturbation theory builds on: LDA
exchange-correlation (with the fxc kernel DFPT needs), the Delley-style
multipole-expansion Hartree solver (whose ``rho_multipole`` /
``delta_v_hart_part_spl`` arrays star in the paper's optimizations),
grid-integrated H/S matrices, and the self-consistency driver.
"""

from repro.dft.xc import lda_exchange_correlation, lda_xc_kernel, XCResult
from repro.dft.hartree import MultipoleSolver, MultipoleExpansion
from repro.dft.hamiltonian import MatrixBuilder
from repro.dft.mixing import PulayMixer
from repro.dft.scf import SCFDriver, GroundState
from repro.dft.occupations import (
    aufbau_occupations,
    fermi_occupations,
    smearing_entropy,
)

__all__ = [
    "lda_exchange_correlation",
    "lda_xc_kernel",
    "XCResult",
    "MultipoleSolver",
    "MultipoleExpansion",
    "MatrixBuilder",
    "PulayMixer",
    "SCFDriver",
    "GroundState",
    "aufbau_occupations",
    "fermi_occupations",
    "smearing_entropy",
]
