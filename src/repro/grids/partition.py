"""Becke partition-of-unity weights for atom-centered integration.

Overlapping atomic grids are disentangled with Becke's fuzzy-cell scheme
(JCP 88, 2547 (1988)): every grid point receives the weight

    w_a(r) = P_a(r) / sum_b P_b(r) ,

with cell functions P built from iterated smooth step functions of the
elliptical coordinate ``mu_ab`` and Becke's atomic-size adjustment.  The
sum over partner atoms is restricted to a neighbourhood of the owning
atom, so the cost stays near-linear for large systems.
"""

from __future__ import annotations

import numpy as np

from repro.atoms.structure import Structure
from repro.errors import GridError

#: Atoms farther than this (Bohr) from the owner cannot influence the
#: partition weight noticeably (the step function saturates).
PARTNER_CUTOFF: float = 18.0

#: Largest ``(points, partners, partners)`` temporary, in elements; the
#: points are cut into chunks that fit.  A constant, not a setting: the
#: weights are bit-for-bit independent of it, and its one job is to keep
#: the two live temporaries (256 KB each) cache-resident whether an owner
#: has 26 partners on a chain or hundreds in a dense solid — measured on
#: the 26-chain, 2^14..2^15 builds the grid in 0.13 s, 2^18 in 0.19 s.
_CHUNK_ELEMENTS: int = 1 << 15


def _size_adjustments(radii: np.ndarray) -> np.ndarray:
    """Becke's heteronuclear cell-boundary shifts ``a_ab`` (clamped to 1/2)."""
    chi = radii[:, None] / radii[None, :]
    u = (chi - 1.0) / (chi + 1.0)
    return np.clip(u / (u * u - 1.0), -0.5, 0.5)


def _cell_functions(
    dist: np.ndarray, sep: np.ndarray, adj: np.ndarray, smoothing: int
) -> np.ndarray:
    """Becke cell functions ``P_a`` of every partner, ``(n, m)``.

    All ordered pairs at once: ``mu`` is ``(n, m, m)`` and the product
    over partners ``b`` runs in index order.  Powers are spelled as
    multiplications — cubing an array with the power operator goes
    through the generic ``pow`` at ~100 ns an element, which was most
    of a grid build.
    """
    mu = dist[:, :, None] - dist[:, None, :]
    mu /= sep
    # Heteronuclear boundary shift: mu + a_ab (1 - mu^2).
    t = mu * mu
    np.subtract(1.0, t, out=t)
    t *= adj
    mu += t
    np.clip(mu, -1.0, 1.0, out=mu)
    # Iterated smoothing polynomial p(p(...p(mu))) with p(x) = 1.5x - 0.5x^3.
    for _ in range(smoothing):
        np.multiply(mu, mu, out=t)
        t *= mu
        t *= 0.5
        mu *= 1.5
        mu -= t
    np.subtract(1.0, mu, out=mu)
    mu *= 0.5
    diagonal = np.arange(sep.shape[0])
    mu[:, diagonal, diagonal] = 1.0
    return np.multiply.reduce(mu, axis=2)


def becke_weights(
    structure: Structure,
    points: np.ndarray,
    owner: int,
    smoothing: int = 3,
) -> np.ndarray:
    """Partition weights of *owner*'s grid points.

    Parameters
    ----------
    structure:
        The molecular system.
    points:
        ``(n, 3)`` coordinates of grid points centred on atom *owner*.
    owner:
        Index of the atom owning these points.
    smoothing:
        Becke's k (number of iterated smoothing passes), typically 3.

    Returns
    -------
    ``(n,)`` weights in [0, 1].  The partners are the owner and every
    atom within :data:`PARTNER_CUTOFF` of it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 <= owner < structure.n_atoms:
        raise GridError(f"owner atom {owner} out of range")
    if smoothing < 1:
        raise GridError(f"smoothing must be >= 1, got {smoothing}")

    # The owner is entry 0 of the partner list by construction.
    partner_idx = np.concatenate(
        [[owner], structure.neighbors_within(owner, PARTNER_CUTOFF)]
    )
    m = partner_idx.shape[0]
    if m == 1:
        return np.ones(points.shape[0])

    centers = structure.coords[partner_idx]  # (m, 3)
    adj = _size_adjustments(
        np.array([structure.elements[a].covalent_radius for a in partner_idx])
    )
    # Pairwise atom separations (m, m); the diagonal never reaches a weight.
    sep = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    np.fill_diagonal(sep, 1.0)

    weights = np.empty(points.shape[0])
    step = max(1, _CHUNK_ELEMENTS // (m * m))
    for start in range(0, points.shape[0], step):
        chunk = points[start : start + step]
        # Distances point -> each partner atom: (n, m).
        dist = np.linalg.norm(chunk[:, None, :] - centers[None, :, :], axis=2)
        cell = _cell_functions(dist, sep, adj, smoothing)
        total = cell.sum(axis=1)
        total = np.where(total > 1e-300, total, 1.0)
        weights[start : start + step] = cell[:, 0] / total
    return weights
