"""Real spherical harmonics via stable normalized recursion.

Used by the multipole-expansion Hartree solver (Eqs. 8-9), which needs
values (no gradients) up to ``l_max`` ~ 6-8.  The functions returned are
orthonormal over the unit sphere:

    int Y_lm Y_l'm' dOmega = delta_ll' delta_mm'

Index convention throughout the library: ``(l, m) -> l^2 + l + m``,
which enumerates ``(0,0), (1,-1), (1,0), (1,1), (2,-2), ...`` — the
same (p, m) enumeration whose collapsed form the paper's Section 4.4
parallelizes.
"""

from __future__ import annotations

import numpy as np


def n_lm(l_max: int) -> int:
    """Number of (l, m) channels with ``l <= l_max``."""
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    return (l_max + 1) ** 2


def lm_index(l: int, m: int) -> int:
    """Flat index of channel (l, m): ``l^2 + l + m``."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid (l, m) = ({l}, {m})")
    return l * l + l + m


def _normalized_legendre(cos_theta: np.ndarray, sin_theta: np.ndarray, l_max: int) -> np.ndarray:
    """Fully normalized associated Legendre functions P-bar_lm.

    Returns ``(l_max+1, l_max+1, n_points)`` with axis-0 = l, axis-1 = m
    (entries with m > l are zero), so every ``p[l, m]`` is a contiguous
    row.  Normalization folds in the
    ``sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)`` factor, keeping the recursion
    stable to high l.  The Condon-Shortley phase is omitted (real
    harmonics convention).
    """
    p = np.zeros((l_max + 1, l_max + 1, cos_theta.shape[0]))
    p[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    # Diagonal: P-bar_mm.
    for m in range(1, l_max + 1):
        p[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * p[m - 1, m - 1]
    # First off-diagonal: P-bar_{m+1, m}.
    for m in range(l_max):
        p[m + 1, m] = np.sqrt(2.0 * m + 3.0) * cos_theta * p[m, m]
    # General recursion in l.
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (cos_theta * p[l - 1, m] - b * p[l - 2, m])
    return p


def harmonics_by_channel(directions: np.ndarray, l_max: int) -> np.ndarray:
    """All real Y_lm with l <= l_max, one contiguous row per channel.

    The library's one harmonics evaluation: ``((l_max+1)^2, n_points)``
    in flat (l, m) order — the layout the Hartree back-interpolation
    plans store — with every recurrence step and every output channel a
    contiguous row write.  :func:`real_spherical_harmonics` is its
    transpose; *directions* are treated as described there.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape[1] != 3:
        raise ValueError(f"directions must be (n, 3), got {directions.shape}")
    norms = np.linalg.norm(directions, axis=1)
    safe = norms > 1e-300
    x, y, z = np.where(safe, directions.T / np.where(safe, norms, 1.0), [[0.0], [0.0], [1.0]])

    cos_theta = np.clip(z, -1.0, 1.0)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta**2))

    p = _normalized_legendre(cos_theta, sin_theta, l_max)

    # cos(m phi), sin(m phi) without computing phi: recurrences on
    # (cos phi, sin phi) = (x, y)/sin_theta; at the poles sin_theta = 0
    # and every m > 0 channel carries a sin_theta^m factor from P-bar,
    # so the arbitrary azimuth there is harmless.
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_phi = np.where(sin_theta > 1e-12, x / np.maximum(sin_theta, 1e-300), 1.0)
        sin_phi = np.where(sin_theta > 1e-12, y / np.maximum(sin_theta, 1e-300), 0.0)

    n = directions.shape[0]
    cos_m = np.ones((l_max + 1, n))
    sin_m = np.zeros((l_max + 1, n))
    for m in range(1, l_max + 1):
        cos_m[m] = cos_m[m - 1] * cos_phi - sin_m[m - 1] * sin_phi
        sin_m[m] = sin_m[m - 1] * cos_phi + cos_m[m - 1] * sin_phi

    sqrt2 = np.sqrt(2.0)
    out = np.empty((n_lm(l_max), n))
    for l in range(l_max + 1):
        out[lm_index(l, 0)] = p[l, 0]
        for m in range(1, l + 1):
            scaled = sqrt2 * p[l, m]
            np.multiply(scaled, cos_m[m], out=out[lm_index(l, m)])
            np.multiply(scaled, sin_m[m], out=out[lm_index(l, -m)])
    return out


def real_spherical_harmonics(directions: np.ndarray, l_max: int) -> np.ndarray:
    """Evaluate all real Y_lm with l <= l_max at unit (or any) vectors.

    Parameters
    ----------
    directions:
        ``(n_points, 3)`` array of direction vectors; they are
        normalized internally.  Zero vectors map to the +z direction
        (only the l = 0 channel is nonzero there in practice because
        callers multiply by radial functions that vanish at the origin
        for l > 0).
    l_max:
        Highest angular momentum.

    Returns
    -------
    C-contiguous ``(n_points, (l_max+1)^2)`` array in flat (l, m) order.
    """
    return np.ascontiguousarray(harmonics_by_channel(directions, l_max).T)
