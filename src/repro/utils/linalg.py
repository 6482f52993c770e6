"""Small dense linear-algebra helpers shared by the DFT/DFPT engines."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + A.T) / 2`` of a square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def mirror_upper(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The symmetric matrix whose upper triangle (diagonal included) is
    that of *a*; the strict lower triangle of *a* is ignored."""
    return np.add(np.triu(a), np.triu(a, 1).T, out=out)


def lowdin_orthogonalization(s: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """Return ``X`` with ``X.T @ S @ X = I`` via symmetric (Lowdin) scheme.

    Eigenvalues of ``S`` below *threshold* are dropped (canonical
    orthogonalization) to protect against near-linear-dependent basis
    sets, which occur for compressed geometries.
    """
    evals, evecs = np.linalg.eigh(symmetrize(s))
    keep = evals > threshold
    if not np.any(keep):
        raise np.linalg.LinAlgError("overlap matrix has no significant eigenvalues")
    return evecs[:, keep] / np.sqrt(evals[keep])


class GeneralizedEigensolver:
    """``H C = S C diag(eps)`` for many ``H`` against one overlap ``S``.

    The canonical orthogonalization ``X`` depends on ``S`` alone, so an
    SCF loop — constant overlap, a new Hamiltonian every cycle —
    diagonalizes ``S`` once here and only ``X.T H X`` per :meth:`solve`.
    """

    def __init__(self, s: np.ndarray) -> None:
        self.x = lowdin_orthogonalization(s)

    def solve(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(eps, C)``, eigenvalues ascending, ``C.T @ S @ C = I``."""
        eps, c_ortho = np.linalg.eigh(symmetrize(self.x.T @ h @ self.x))
        return eps, self.x @ c_ortho


def solve_generalized_eigenproblem(
    h: np.ndarray, s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``H C = S C diag(eps)`` for a symmetric pencil.

    Returns ``(eps, C)`` with eigenvalues ascending and eigenvectors
    S-orthonormal (``C.T @ S @ C = I`` on the retained subspace).  Uses
    canonical orthogonalization so mildly ill-conditioned overlaps are
    handled gracefully; in that case fewer eigenpairs than ``len(h)`` may
    be returned.
    """
    return GeneralizedEigensolver(s).solve(h)


def density_matrix_from_orbitals(
    c: np.ndarray, occupations: np.ndarray
) -> np.ndarray:
    """Build ``P = C diag(f) C.T`` restricted to occupied columns.

    Parameters
    ----------
    c:
        Orbital coefficients, one column per molecular orbital.
    occupations:
        Occupation numbers ``f_i`` aligned with the columns of *c*.
    """
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape[0] != c.shape[1]:
        raise ValueError(
            f"{occupations.shape[0]} occupations for {c.shape[1]} orbitals"
        )
    occ = occupations > 0.0
    c_occ = c[:, occ]
    return (c_occ * occupations[occ]) @ c_occ.T
