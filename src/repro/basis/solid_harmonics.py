"""Real solid harmonics S_lm = r^l Y_lm and their gradients, l <= 2.

Basis functions are evaluated as ``chi = g_l(r) * S_lm(r_vec)`` with
``g_l(r) = R(r)/r^l`` splined radially; since S_lm are polynomials this
form is smooth through the nucleus and its gradient is

    grad chi = g_l'(r) * (r_vec/r) * S_lm + g_l(r) * grad S_lm .

The basis only uses s, p and d channels ("light" NAO sets), so the nine
polynomials and their (linear) gradients are hard-coded; the general
machinery in :mod:`repro.basis.ylm` covers the high-l multipole needs
where gradients are never required.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Highest angular momentum supported for *basis* functions.
MAX_BASIS_L: int = 2

_C00 = 0.5 / np.sqrt(np.pi)  # 1/sqrt(4 pi)
_C1 = np.sqrt(3.0 / (4.0 * np.pi))
_C2A = 0.5 * np.sqrt(15.0 / np.pi)  # xy, yz, xz
_C20 = 0.25 * np.sqrt(5.0 / np.pi)  # 3z^2 - r^2
_C22 = 0.25 * np.sqrt(15.0 / np.pi)  # x^2 - y^2


def solid_harmonics(rvec: np.ndarray, l_max: int = MAX_BASIS_L) -> np.ndarray:
    """Values of S_lm for l <= l_max at displacement vectors.

    Parameters
    ----------
    rvec:
        ``(n, 3)`` displacement vectors from the basis-function centre.
    l_max:
        0, 1 or 2.

    Returns
    -------
    ``(n, (l_max+1)^2)`` array in flat (l, m) order consistent with
    :func:`repro.basis.ylm.lm_index`, Fortran-ordered: each ``S_lm`` is
    one contiguous column.
    """
    if not 0 <= l_max <= MAX_BASIS_L:
        raise ValueError(f"solid harmonics hard-coded for l <= {MAX_BASIS_L}, got {l_max}")
    rvec = np.atleast_2d(np.asarray(rvec, dtype=float))
    x, y, z = rvec[:, 0], rvec[:, 1], rvec[:, 2]
    n = rvec.shape[0]
    # Each harmonic a contiguous column (the array is Fortran-ordered).
    out = np.empty(((l_max + 1) ** 2, n)).T
    out[:, 0] = _C00
    if l_max >= 1:
        out[:, 1] = _C1 * y  # (1,-1)
        out[:, 2] = _C1 * z  # (1, 0)
        out[:, 3] = _C1 * x  # (1, 1)
    if l_max >= 2:
        r2 = x * x + y * y + z * z
        out[:, 4] = _C2A * x * y          # (2,-2)
        out[:, 5] = _C2A * y * z          # (2,-1)
        out[:, 6] = _C20 * (3.0 * z * z - r2)  # (2, 0)
        out[:, 7] = _C2A * x * z          # (2, 1)
        out[:, 8] = _C22 * (x * x - y * y)     # (2, 2)
    return out


def solid_harmonics_with_gradients(
    rvec: np.ndarray, l_max: int = MAX_BASIS_L
) -> Tuple[np.ndarray, np.ndarray]:
    """Values and Cartesian gradients of S_lm, l <= l_max.

    Returns ``(values, gradients)`` with shapes ``(n, n_lm)`` and
    ``(n, n_lm, 3)``, Fortran-ordered like :func:`solid_harmonics`.
    """
    values = solid_harmonics(rvec, l_max)
    rvec = np.atleast_2d(np.asarray(rvec, dtype=float))
    x, y, z = rvec[:, 0], rvec[:, 1], rvec[:, 2]
    n = rvec.shape[0]
    grads = np.zeros((3, (l_max + 1) ** 2, n)).T  # every grads[:, lm, k] contiguous
    # l = 0: gradient is zero.
    if l_max >= 1:
        grads[:, 1, 1] = _C1  # d(y)/dy
        grads[:, 2, 2] = _C1  # d(z)/dz
        grads[:, 3, 0] = _C1  # d(x)/dx
    if l_max >= 2:
        grads[:, 4, 0] = _C2A * y
        grads[:, 4, 1] = _C2A * x
        grads[:, 5, 1] = _C2A * z
        grads[:, 5, 2] = _C2A * y
        grads[:, 6, 0] = -2.0 * _C20 * x
        grads[:, 6, 1] = -2.0 * _C20 * y
        grads[:, 6, 2] = 4.0 * _C20 * z
        grads[:, 7, 0] = _C2A * z
        grads[:, 7, 2] = _C2A * x
        grads[:, 8, 0] = 2.0 * _C22 * x
        grads[:, 8, 1] = -2.0 * _C22 * y
    return values, grads
