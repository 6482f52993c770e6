"""Polarizability tensors from converged responses (Eq. 13)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import CPSCFSettings
from repro.dfpt.response import DFPTSolver, ResponseResult
from repro.dft.scf import GroundState


def polarizability_tensor(
    ground_state: GroundState,
    settings: Optional[CPSCFSettings] = None,
    responses: Optional[Sequence[ResponseResult]] = None,
) -> np.ndarray:
    """Static dipole polarizability alpha_IJ (atomic units, Bohr^3).

    alpha_IJ = d mu_I / d xi_J = -Tr(P^(1,J) D_I): the converged
    response for field direction J fills column J.  *responses* are the
    three :meth:`~repro.dfpt.response.DFPTSolver.solve_all` results of
    a CPSCF run already done; without them the run happens here.
    """
    if responses is None:
        responses = DFPTSolver(ground_state, settings).solve_all()
    alpha = np.empty((3, 3))
    for result in responses:
        alpha[:, result.direction] = result.polarizability_column(
            ground_state.dipoles
        )
    return alpha


def isotropic_polarizability(alpha: np.ndarray) -> float:
    """Orientation average: Tr(alpha) / 3."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3, 3):
        raise ValueError(f"expected a 3x3 tensor, got {alpha.shape}")
    return float(np.trace(alpha) / 3.0)
