"""The one neighbour search: batch -> atoms / functions / spline atoms and atom ->
atoms (Alg. 1, Fig. 9) are all ``|x_i - y_j| <= rho_i + sigma_j``; CSR rows out.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GridError

#: Largest ``(queries, candidates)`` distance block, in elements; a cell's
#: queries are cut into slabs that fit.  A constant, not a setting: a hit is
#: decided per element, so results are bit-for-bit independent of it; it only
#: bounds the transients when many points share a cell.  2^14 / 2^18 / 2^23: one
#: 4 000 x 2 000 cell peaks at 2 / 19 / 512 MB in 0.36 / 0.33 / 0.60 s, the
#: 10 004-atom chain (76 694 batches, ~50 x 18 blocks) takes 0.24-0.32 s.
_BLOCK_ELEMENTS: int = 1 << 18


def _radii(r, n: int, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim and r.shape != (n,):
        raise GridError(f"{name} has shape {r.shape} for {n} points")
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise GridError(f"{name} must be finite and >= 0")
    return np.broadcast_to(r, (n,))


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(start, count)])``."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def sphere_overlaps(x, rho, y, sigma) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)``: row ``i`` lists, ascending, every ``j``
    with ``|x[i] - y[j]| <= rho[i] + sigma[j]`` (inclusive; scalar radii
    broadcast).  Empty *x* or *y* gives an empty CSR.

    >>> [a.tolist() for a in sphere_overlaps([[0, 0, 0], [9, 0, 0]], 1, [[0, 3, 4]], 4)]
    [[0, 1, 1], [0]]
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for name, pts in (("x", x), ("y", y)):
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise GridError(f"{name} must be (n, 3), got {pts.shape}")
    n, m = x.shape[0], y.shape[0]
    rho, sigma = _radii(rho, n, "rho"), _radii(sigma, m, "sigma")
    if n == 0 or m == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    # Cell edge: the farthest reach, a hair wider so that rounding in the
    # quotient cannot put a pair at exactly that distance two cells apart; at
    # most 2^20 cells per axis, to keep the flattened key inside int64; and at
    # least 1e-6: far below, squares underflow and a zero distance is no zero.
    pts = np.concatenate((x, y))
    origin, extent = pts.min(axis=0), float(np.ptp(pts, axis=0).max())
    cell = max(float(rho.max() + sigma.max()) * (1.0 + 1e-6), extent / 2**20, 1e-6)
    key = np.floor((pts - origin) / cell).astype(np.int64) + 1  # >= 1: room for -1
    ny, nz = key[:, 1].max() + 2, key[:, 2].max() + 2
    key = (key[:, 0] * ny + key[:, 1]) * nz + key[:, 2]
    x_order, y_order = (np.argsort(k, kind="stable") for k in (key[:n], key[n:]))
    y_keys = key[n:][y_order]

    # Per occupied query cell, its 27 neighbour cells as 9 runs of sorted y
    # (the three z-neighbours are adjacent keys), expanded to candidates.
    cells, starts = np.unique(key[:n][x_order], return_index=True)
    near = np.array([-1, 0, 1])
    base = cells[:, None] + (np.repeat(near, 3) * ny + np.tile(near, 3)) * nz
    lo = np.searchsorted(y_keys, base - 1, side="left")
    count = np.searchsorted(y_keys, base + 1, side="right") - lo
    cand_all = y_order[ranges(lo.ravel(), count.ravel())]
    cand_ptr = np.append(0, np.cumsum(count.sum(axis=1)))

    counts, blocks = np.zeros(n, dtype=np.int64), []
    for c, members in enumerate(np.split(x_order, starts[1:])):
        cand = np.sort(cand_all[cand_ptr[c] : cand_ptr[c + 1]])
        slab = max(1, _BLOCK_ELEMENTS // max(cand.size, 1))
        for q in (members[s : s + slab] for s in range(0, members.size, slab)):
            d = np.linalg.norm(x[q][:, None, :] - y[cand][None, :, :], axis=2)
            r, k = np.nonzero(d <= rho[q][:, None] + sigma[cand][None, :])
            counts[q] = np.bincount(r, minlength=q.size)
            blocks.append((q, cand[k]))
    # A block's rows and columns ascend and its hits are row-major: it fits as is.
    indptr = np.append(0, np.cumsum(counts))
    indices = np.empty(indptr[-1], dtype=np.int64)
    for q, cols in blocks:
        indices[ranges(indptr[q], counts[q])] = cols
    return indptr, indices
