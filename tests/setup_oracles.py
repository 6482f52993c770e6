"""The pre-PR-17 set-up primitives and the pre-PR-18 per-batch contraction
loops, kept verbatim as test oracles.

Until PR 17 a basis block was a Python loop over every shell of every
atom and the Becke weights a loop over every ordered atom pair.  Both
became array programs (DESIGN §5.2); the loops below are the old bodies,
moved here unchanged so the tests can hold the array programs to them —
``np.array_equal`` for chi and grad chi (same elementwise math, same
order), ``allclose(atol=2e-15, rtol=0)`` for the weights (``f*f*f``
rounds differently from ``f**3``).

Until PR 18 Sumup, H and the kinetic matrix were one loop over one view
per batch — all ``n_basis`` columns wide when dense, the pattern's
active set gathered with ``np.ix_`` when screened — contracted with a
plain GEMM.  The fused, column-compact engine (DESIGN §8) is held to
these within ``CONTRACTION_RTOL`` of each array's largest entry: the
summation order changed, nothing else.

Until PR 19 the real spherical harmonics were written point-major, one
strided column per channel, and Hartree stage 3 was one stacked
``[y; m] @ Y_near.T`` product per atom with the four spline taps
gathered out of it.  The channel-major evaluation keeps every value
(``array_equal``); the interval-sorted plan (DESIGN §5.1) is held to the
stacked product within ``CONTRACTION_RTOL`` of ``max|v|``.

Until PR 21 "which spheres overlap" was written seven times — chunked
all-pairs loops and bucket-dict cell lists.  The one cell-list primitive
(``repro.utils.neighbors.sphere_overlaps``) is held ``array_equal`` to
the all-pairs body those loops shared: same distance expression, same
inclusive comparison.

Until PR 22 Alg. 1 was a recursion (14 333 calls at 4 096 ranks), the
greedy mapping a heap pop + push per batch, a rank's atoms one
``np.unique`` per rank and its spline atoms one ``set.update`` per batch.
The array programs in ``repro.mapping`` are held to these bodies with
``==``: the arithmetic and every tie-break are unchanged.

The summary batches were once one ``GridBatch`` per batch in a list, their relevant atoms one neighbour search per batch, and the greedy
mapping a heap step per batch.  ``synthetic_batches`` now keeps the
arrays (``SummaryBatches``) and searches once per atom, and the greedy
mapping assigns a round of ranks at a time; both are held ``==`` to the
old body below and to the heap loop above.

Until the set-up sweep, ``MatrixBuilder.kinetic`` was a serial loop over
the fused views that dropped the values it evaluated with the gradients;
the two-core sweep that also fills the block cache is held
``array_equal`` to that loop, kept below.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.basis.basis_set import _species_shells
from repro.basis.sets import RadialShell
from repro.basis.solid_harmonics import solid_harmonics, solid_harmonics_with_gradients
from repro.basis.spline import CubicSpline
from repro.grids.partition import PARTNER_CUTOFF
from repro.utils.neighbors import sphere_overlaps


@dataclass(frozen=True)
class ShellInstance:
    """A species shell planted on a specific atom (the old loop's unit)."""

    atom: int
    center: np.ndarray
    shell: RadialShell
    g_spline: CubicSpline
    cutoff: float
    first_index: int


def shell_instances(basis):
    """Every (atom, shell) of *basis* in column order, rebuilt from its
    public function list and the species radial tables."""
    structure = basis.structure
    out = []
    for f in basis.functions:
        if f.m != -f.l:
            continue
        (shell, spline, cutoff), = [
            entry
            for entry in _species_shells(structure.symbols[f.atom], structure.elements[f.atom].z)
            if entry[0].label == f.shell_label
        ]
        assert cutoff == f.cutoff and shell.l == f.l
        out.append(
            ShellInstance(f.atom, structure.coords[f.atom], shell, spline, cutoff, f.index)
        )
    return out


def oracle_interval(x, t):
    """The interval lookup as a literal binary search: ``(idx, t clamped)``.

    Independent of ``SplineSystem.locate``, which may take the log mesh's
    O(1) path: a wrong lookup there must not pass the oracles below.
    """
    idx = np.searchsorted(x, t, side="right") - 1
    return np.clip(idx, 0, x.shape[0] - 2), np.clip(t, x[0], x[-1])


def oracle_spline_value(spline, t):
    """``CubicSpline.__call__`` as it was: its own interval lookup."""
    idx, tc = oracle_interval(spline.x, t)
    x0 = spline.x[idx]
    x1 = spline.x[idx + 1]
    h = x1 - x0
    a = (x1 - tc) / h
    b = (tc - x0) / h
    return (
        a * spline.y[idx]
        + b * spline.y[idx + 1]
        + ((a**3 - a) * spline.m[idx] + (b**3 - b) * spline.m[idx + 1])
        * (h**2)
        / 6.0
    )


def oracle_spline_derivative(spline, t):
    """``CubicSpline.derivative`` as it was: a second interval lookup."""
    idx, tc = oracle_interval(spline.x, t)
    x0 = spline.x[idx]
    x1 = spline.x[idx + 1]
    h = x1 - x0
    a = (x1 - tc) / h
    b = (tc - x0) / h
    return (
        (spline.y[idx + 1] - spline.y[idx]) / h
        + (-(3.0 * a**2 - 1.0) * spline.m[idx] + (3.0 * b**2 - 1.0) * spline.m[idx + 1])
        * h
        / 6.0
    )


def oracle_evaluate(basis, points, atoms=None, cols=None):
    """``BasisSet.evaluate`` as a loop over shell instances; *cols* slices
    the full-width result."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.zeros((points.shape[0], basis.n_basis))
    atom_filter = None if atoms is None else set(int(a) for a in atoms)
    for inst in shell_instances(basis):
        if atom_filter is not None and inst.atom not in atom_filter:
            continue
        d = points - inst.center
        r = np.linalg.norm(d, axis=1)
        mask = r <= inst.cutoff
        if not np.any(mask):
            continue
        g = oracle_spline_value(inst.g_spline, r[mask])
        l = inst.shell.l
        s_all = solid_harmonics(d[mask], l)
        s = s_all[:, l * l : (l + 1) ** 2]
        span = slice(inst.first_index, inst.first_index + inst.shell.n_functions)
        values[np.nonzero(mask)[0], span] = g[:, None] * s
    return values if cols is None else values[:, cols]


def oracle_evaluate_with_gradients(basis, points, atoms=None, cols=None):
    """``BasisSet.evaluate_with_gradients`` as a loop over shell instances;
    the point-major gradients are handed out component-major, and *cols*
    slices both full-width results."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = points.shape[0]
    values = np.zeros((n_pts, basis.n_basis))
    grads = np.zeros((n_pts, basis.n_basis, 3))
    atom_filter = None if atoms is None else set(int(a) for a in atoms)
    for inst in shell_instances(basis):
        if atom_filter is not None and inst.atom not in atom_filter:
            continue
        d = points - inst.center
        r = np.linalg.norm(d, axis=1)
        mask = r <= inst.cutoff
        if not np.any(mask):
            continue
        rm = r[mask]
        dm = d[mask]
        g = oracle_spline_value(inst.g_spline, rm)
        dg = oracle_spline_derivative(inst.g_spline, rm)
        l = inst.shell.l
        s_all, grad_all = solid_harmonics_with_gradients(dm, l)
        s = s_all[:, l * l : (l + 1) ** 2]
        grad_s = grad_all[:, l * l : (l + 1) ** 2, :]
        safe_r = np.maximum(rm, 1e-12)
        rhat = dm / safe_r[:, None]
        rows = np.nonzero(mask)[0]
        span = slice(inst.first_index, inst.first_index + inst.shell.n_functions)
        values[rows, span] = g[:, None] * s
        grads[rows, span, :] = (
            (dg[:, None] * s)[:, :, None] * rhat[:, None, :]
            + g[:, None, None] * grad_s
        )
    grads = grads.transpose(2, 0, 1)  # component-major, as the evaluator's
    if cols is None:
        return values, grads
    return values[:, cols], grads[:, :, cols]


def _becke_step(mu, k):
    f = mu
    for _ in range(k):
        f = 1.5 * f - 0.5 * f**3
    return f


def _size_adjustment(r_a, r_b):
    chi = r_a / r_b
    u = (chi - 1.0) / (chi + 1.0)
    a = u / (u * u - 1.0)
    return float(np.clip(a, -0.5, 0.5))


def oracle_becke_weights(structure, points, owner, smoothing=3):
    """``becke_weights`` as a loop over ordered partner pairs."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    partner_idx = structure.neighbors_within(owner, PARTNER_CUTOFF)
    partner_idx = np.concatenate([[owner], partner_idx])

    centers = structure.coords[partner_idx]  # (m, 3)
    radii = np.array(
        [structure.elements[a].covalent_radius for a in partner_idx]
    )
    m = partner_idx.shape[0]
    if m == 1:
        return np.ones(points.shape[0])

    dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    sep = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)

    cell = np.ones((points.shape[0], m))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            mu = (dist[:, a] - dist[:, b]) / sep[a, b]
            adj = _size_adjustment(radii[a], radii[b])
            mu = mu + adj * (1.0 - mu**2)
            mu = np.clip(mu, -1.0, 1.0)
            cell[:, a] *= 0.5 * (1.0 - _becke_step(mu, smoothing))

    total = cell.sum(axis=1)
    total = np.where(total > 1e-300, total, 1.0)
    return cell[:, 0] / total


def oracle_partition_weights(grid):
    """``IntegrationGrid.compute_partition_weights`` over the pair loop."""
    w = np.empty(grid.n_points)
    for atom in range(grid.structure.n_atoms):
        sel = grid.atom_index == atom
        w[sel] = oracle_becke_weights(
            grid.structure, grid.points[sel], atom,
            smoothing=grid.settings.becke_smoothing,
        )
    return w


# ----------------------------------------------------------------------
# The per-batch contraction loops (pre-PR-18 ``backends/base.py`` and
# ``MatrixBuilder.kinetic``)
# ----------------------------------------------------------------------
#: Engine vs per-batch loop, relative to the array's largest entry.
#: Measured at most 2.4e-15 (H on the 32-atom chain).
CONTRACTION_RTOL = 1e-13


def assert_close_at_scale(got, want, rtol=CONTRACTION_RTOL):
    """``max|got - want| <= rtol * max|want|`` (exact where *want* is 0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.abs(want).max()) if want.size else 0.0
    assert float(np.abs(got - want).max(initial=0.0)) <= rtol * scale


def screened_columns(batches, basis, threshold):
    """Per batch, the functions whose screened reach touches its bounding
    sphere: one search over every function of the structure, as the
    screening pattern found them before the mask moved onto the views."""
    centroids = np.array([b.centroid for b in batches], dtype=float).reshape(-1, 3)
    radii = np.array([b.radius for b in batches], dtype=float)
    indptr, indices = sphere_overlaps(
        centroids, radii, basis.structure.coords[basis.function_atoms],
        basis.screened_function_cutoffs(threshold),
    )
    return np.split(indices, indptr[1:-1]) if len(batches) else []


def _per_batch_views(builder, screened):
    """``(point_indices, atoms, cols, pair)`` per batch with work, as
    ``build_batch_views`` listed them before fusion."""
    everything = slice(None)
    if not (screened and builder.views.screened):
        for b in builder.batches:
            yield b.point_indices, b.relevant_atoms, everything, (everything, everything)
        return
    columns = screened_columns(builder.batches, builder.basis, builder.screening_threshold)
    for b, act in zip(builder.batches, columns):
        if act.size:
            atoms = tuple(np.unique(builder.basis.function_atoms[act]).tolist())
            yield b.point_indices, atoms, act, np.ix_(act, act)


_BLOCKS = {}


def _per_batch_blocks(builder, screened):
    """The views with their chi blocks, evaluated once per builder (the
    old engine's warm cache; a test contracts them many times)."""
    key = (id(builder), bool(screened) and builder.views.screened)
    if key not in _BLOCKS:
        _BLOCKS[key] = builder, [
            (idx, pair, builder.basis.evaluate(builder.grid.points[idx], atoms=atoms)[:, cols])
            for idx, atoms, cols, pair in _per_batch_views(builder, screened)
        ]
    return _BLOCKS[key][1]


def oracle_density_on_grid(builder, density_matrix, screened=True):
    """Sumup, one ``phi @ P`` GEMM and a row dot per batch."""
    p = np.asarray(density_matrix, dtype=float)
    out = np.zeros(builder.grid.n_points)
    for idx, pair, phi in _per_batch_blocks(builder, screened):
        out[idx] = np.einsum("pi,pi->p", phi @ p[pair], phi)
    return out


def oracle_potential_matrix(builder, potential_values, screened=True):
    """H, one ``phi.T @ (phi * wv)`` GEMM per batch."""
    wv = builder.grid.weights * np.asarray(potential_values, dtype=float)
    nb = builder.basis.n_basis
    acc = np.zeros((nb, nb))
    for idx, pair, phi in _per_batch_blocks(builder, screened):
        acc[pair] += phi.T @ (phi * wv[idx][:, None])
    return 0.5 * (acc + acc.T)


def oracle_kinetic(builder):
    """T, three GEMMs per batch."""
    w = builder.grid.weights
    nb = builder.basis.n_basis
    t = np.zeros((nb, nb))
    for idx, atoms, cols, pair in _per_batch_views(builder, screened=True):
        _, grads = builder.basis.evaluate_with_gradients(
            builder.grid.points[idx], atoms=atoms
        )
        for gk in grads[:, :, cols]:
            t[pair] += gk.T @ (gk * w[idx][:, None])
    t = 0.5 * t
    return 0.5 * (t + t.T)


def serial_kinetic_oracle(builder):
    """T as ``MatrixBuilder.kinetic`` computed it until the set-up sweep:
    one thread walking the fused views, the values evaluated along with
    the gradients and dropped.  The sweep adds the same Grams in the same
    order, so T is held ``array_equal`` to this."""
    from repro.backends.base import weighted_gram
    from repro.dft.hamiltonian import _SLAB_ROWS
    from repro.utils.linalg import symmetrize
    from repro.utils.scratch import scratch

    w = builder.grid.weights
    t = np.zeros((builder.basis.n_basis, builder.basis.n_basis))
    for view in builder.views:
        cols = view.cols
        block = np.zeros((cols.size, cols.size))
        for lo in range(0, view.point_indices.size, _SLAB_ROWS):
            idx = view.point_indices[lo : lo + _SLAB_ROWS]
            _, grads = builder.basis.evaluate_with_gradients(
                builder.grid.points[idx], atoms=view.atoms, cols=cols
            )
            view.zero_padding(grads, lo)
            with scratch((idx.size, cols.size)) as work:
                for k in range(3):
                    block += weighted_gram(grads[k], w[idx], work)
        view.scatter_add(t, block)
    return symmetrize(0.5 * t)


# ----------------------------------------------------------------------
# Hartree back-interpolation and harmonics as they were until PR 19
# ----------------------------------------------------------------------
def oracle_real_spherical_harmonics(directions, l_max):
    """The row-major harmonics evaluation (25 strided column writes per
    call) that ``basis.ylm.harmonics_by_channel`` replaced; values must
    stay ``array_equal``."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    safe = norms > 1e-300
    unit = np.zeros_like(directions)
    unit[safe] = directions[safe] / norms[safe, None]
    unit[~safe] = (0.0, 0.0, 1.0)
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    cos_theta = np.clip(z, -1.0, 1.0)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta**2))

    n = directions.shape[0]
    p = np.zeros((n, l_max + 1, l_max + 1))
    p[:, 0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, l_max + 1):
        p[:, m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * p[:, m - 1, m - 1]
    for m in range(l_max):
        p[:, m + 1, m] = np.sqrt(2.0 * m + 3.0) * cos_theta * p[:, m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[:, l, m] = a * (cos_theta * p[:, l - 1, m] - b * p[:, l - 2, m])

    with np.errstate(invalid="ignore", divide="ignore"):
        cos_phi = np.where(sin_theta > 1e-12, x / np.maximum(sin_theta, 1e-300), 1.0)
        sin_phi = np.where(sin_theta > 1e-12, y / np.maximum(sin_theta, 1e-300), 0.0)
    cos_m = np.ones((n, l_max + 1))
    sin_m = np.zeros((n, l_max + 1))
    for m in range(1, l_max + 1):
        cos_m[:, m] = cos_m[:, m - 1] * cos_phi - sin_m[:, m - 1] * sin_phi
        sin_m[:, m] = sin_m[:, m - 1] * cos_phi + cos_m[:, m - 1] * sin_phi

    sqrt2 = np.sqrt(2.0)
    out = np.zeros((n, (l_max + 1) ** 2))
    for l in range(l_max + 1):
        out[:, l * l + l] = p[:, l, 0]
        for m in range(1, l + 1):
            out[:, l * l + l + m] = sqrt2 * p[:, l, m] * cos_m[:, m]
            out[:, l * l + l - m] = sqrt2 * p[:, l, m] * sin_m[:, m]
    return out


def oracle_stacked_product_potential(solver, expansion, points=None, atoms=None):
    """Stage 3 of the Hartree solve as PRs 15-18 ran it: per atom ONE
    ``[y; m] (2 n_shells, n_lm) @ Y_near.T`` product over all spline
    rows, each near point's four taps gathered out of it with
    ``np.take``, weighted and summed; the far table with the generic
    ``pow``.  The interval-sorted plan does a thirteenth of the
    multiply-adds and reorders the four-term sum, nothing else, so it is
    held to this within 1e-13 of ``max|v|``."""
    points = solver.grid.points if points is None else points
    ls = np.concatenate([np.full(2 * l + 1, float(l)) for l in range(solver.l_max + 1)])
    pref = 4.0 * np.pi / (2.0 * ls + 1.0)
    v = np.zeros(points.shape[0])
    for atom in range(solver.structure.n_atoms) if atoms is None else atoms:
        spline = expansion.potential_splines[atom]
        d = points - solver.structure.coords[atom]
        r = np.linalg.norm(d, axis=1)
        inside = r <= spline.x[-1]
        near, far = np.flatnonzero(inside), np.flatnonzero(~inside)
        n_near, n_shells = near.shape[0], spline.n_knots

        y = oracle_real_spherical_harmonics(d, solver.l_max)
        idx, a, b, h = spline.system.interval(r[near])
        h2_6 = h**2 / 6.0
        weights = np.stack([a, b, (a**3 - a) * h2_6, (b**3 - b) * h2_6])
        rows = idx[:, None] + np.array([0, 1, n_shells, n_shells + 1])
        taps = (rows * n_near + np.arange(n_near)[:, None]).T
        z = np.concatenate([spline.y, spline.m]) @ np.ascontiguousarray(y[near].T)
        v[near] += (np.take(z.reshape(-1), taps, mode="clip") * weights).sum(axis=0)
        far_table = pref * y[far] / r[far, None] ** (ls + 1.0)
        v[far] += far_table @ expansion.far_moments[atom]
    return v


# ----------------------------------------------------------------------
# Neighbour search (pre-PR-21: the all-pairs branch every caller carried)
# ----------------------------------------------------------------------
def sphere_overlaps_oracle(x, rho, y, sigma):
    """CSR of every ``|x_i - y_j| <= rho_i + sigma_j`` by brute force."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    y = np.asarray(y, dtype=float).reshape(-1, 3)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (x.shape[0],))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (y.shape[0],))
    d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    hits = d <= rho[:, None] + sigma[None, :]
    indptr = np.concatenate(([0], np.cumsum(hits.sum(axis=1))))
    return indptr, np.nonzero(hits)[1]


# ----------------------------------------------------------------------
# Mapping and per-rank reductions (pre-PR-22 loops)
# ----------------------------------------------------------------------
def locality_mapping_oracle(batches, n_ranks):
    """Alg. 1 as the recursion it was; ``batches_of_rank`` out."""
    from repro.errors import MappingError

    centroids = np.array([b.centroid for b in batches])
    points = np.array([b.n_points for b in batches], dtype=np.int64)
    owned = [[] for _ in range(n_ranks)]

    def recurse(rank_lo, rank_hi, idx):
        n_procs = rank_hi - rank_lo
        if n_procs == 1:
            owned[rank_lo].extend(int(i) for i in idx)
            return
        if idx.size < n_procs:
            raise MappingError(
                f"bisection ran out of batches ({idx.size} for {n_procs} ranks)"
            )
        left_procs = (n_procs + 1) // 2
        sub = centroids[idx]
        spans = sub.max(axis=0) - sub.min(axis=0)
        dim = int(np.argmax(spans))
        order = np.argsort(sub[:, dim], kind="stable")
        sorted_idx = idx[order]
        cum = np.cumsum(points[sorted_idx])
        pivot = cum[-1] * left_procs / n_procs
        p = int(np.searchsorted(cum, pivot, side="right"))
        p = max(p, left_procs)
        p = min(p, idx.size - (n_procs - left_procs))
        recurse(rank_lo, rank_lo + left_procs, sorted_idx[:p])
        recurse(rank_lo + left_procs, rank_hi, sorted_idx[p:])

    recurse(0, n_ranks, np.arange(len(batches), dtype=np.int64))
    return tuple(tuple(o) for o in owned)


def load_balancing_oracle(batches, n_ranks):
    """Greedy least-loaded as one heap pop and push per batch."""
    heap = [(0, r) for r in range(n_ranks)]
    heapq.heapify(heap)
    owned = [[] for _ in range(n_ranks)]
    for b in batches:
        points, rank = heapq.heappop(heap)
        owned[rank].append(b.index)
        heapq.heappush(heap, (points + b.n_points, rank))
    return tuple(tuple(o) for o in owned)


def atoms_per_rank_oracle(assignment, batches, use_relevant=True):
    """One ``np.unique`` over a list comprehension per rank."""
    out = []
    empty = np.empty(0, dtype=np.int64)
    for owned in assignment.batches_of_rank:
        parts = [
            np.asarray(
                batches[b].relevant_atoms if use_relevant else batches[b].owner_atoms,
                dtype=np.int64,
            )
            for b in owned
        ]
        out.append(np.unique(np.concatenate(parts)) if parts else empty)
    return out


def rows_as_read(arrays):
    """Each batch's atom ids as :class:`BatchArrays` hands them out: its
    ``rows`` entry's slice of ``(indptr, indices)``."""
    ptr = arrays.indptr.tolist()
    return [arrays.indices[ptr[r] : ptr[r + 1]] for r in arrays.rows.tolist()]


def split_rank_atoms(assignment, batches, use_relevant=True):
    """``assignment.rank_atoms`` cut into one array per rank, the shape
    :func:`atoms_per_rank_oracle` returns."""
    rank_ptr, atoms = assignment.rank_atoms(batches, use_relevant)
    return np.split(atoms, rank_ptr[1:-1])


def rank_atom_csr_oracle(owned, rows, indptr, indices):
    """Per rank, ``np.unique`` of its batches' rows expanded in full, as CSR."""
    empty = np.empty(0, dtype=np.int64)
    per_rank = [
        np.unique(np.concatenate([indices[indptr[rows[b]] : indptr[rows[b] + 1]] for b in o] + [empty]))
        for o in owned
    ]
    return np.append(0, np.cumsum([len(a) for a in per_rank])), np.concatenate(per_rank + [empty])


def spline_counts_oracle(assignment, indptr, indices):
    """Distinct atoms per rank of a batch -> atom CSR, one ``set`` per rank."""
    ends = indptr.tolist()
    counts = np.empty(assignment.n_ranks, dtype=np.int64)
    for r, owned in enumerate(assignment.batches_of_rank):
        atoms = set()
        for b in owned:
            atoms.update(indices[ends[b] : ends[b + 1]].tolist())
        counts[r] = len(atoms)
    return counts


# ----------------------------------------------------------------------
# Summary batches as one GridBatch object per batch, and their search per batch
# ----------------------------------------------------------------------
def synthetic_batches_oracle(
    workload,
    target_points=None,
):
    """Summary batches for systems too large to materialize the grid.

    Atoms are visited in spatially sorted order (widest bounding-box
    dimension); consecutive atoms' point masses are cut into batches of
    ~``target_points``.  Centroids are atom positions, radii the grid
    extent — the quantities the mapping strategies and memory models
    read.  Relevant-atom sets are attached with the same cutoff logic
    as the real batches, and the list carries its :class:`BatchArrays`.
    """
    from repro.grids.batching import BatchArrays, BatchList, GridBatch
    from repro.mapping.memory_model import atom_cutoffs_light
    from repro.utils.neighbors import sphere_overlaps

    structure = workload.structure
    if target_points is None:
        target_points = workload.settings.grids.batch_target_points

    coords = structure.coords
    cutoffs = atom_cutoffs_light(structure)

    # Every atom's point mass exceeds the batch target at realistic
    # settings (a light H atom alone carries >1000 points), so the real
    # cut planes always slice *within* atomic grids.  Summary batches
    # are therefore per-atom fragments: atom a contributes
    # ceil(mass_a / target) batches located at the atom, never mixing
    # atoms (which would fabricate spatially extended batches).
    ppa = workload.points_per_atom.astype(np.int64)
    n_frag = np.maximum(1, -(-ppa // target_points))

    # Emit fragments in spatial order along the widest dimension so
    # batch ids correlate with space (as the real batch stream does).
    lo, hi = structure.bounding_box()
    dim = int(np.argmax(hi - lo))
    order = np.argsort(coords[:, dim], kind="stable")

    # Atom a's k-th fragment: base_a points, one more for the first mass_a mod n_frag_a.
    frags = n_frag[order]
    atom_of = np.repeat(order, frags)
    k = np.arange(atom_of.shape[0]) - np.repeat(np.cumsum(frags) - frags, frags)
    base = ppa // n_frag
    points = base[atom_of] + (k < (ppa % n_frag)[atom_of])
    centroids = coords[atom_of]
    radii = np.full(atom_of.shape[0], 2.0)  # one atom's grid fragment envelope (Bohr)
    indptr, indices = sphere_overlaps(centroids, radii, coords, cutoffs)

    # The models read a summary batch's point count, never its indices: one
    # read-only zero-stride buffer per distinct count, no bytes behind it.
    zero = np.zeros((), dtype=np.int64)
    no_indices = {n: np.broadcast_to(zero, (n,)) for n in np.unique(points).tolist()}
    ends = indptr.tolist()
    batches = (
        GridBatch(
            index=i,
            point_indices=no_indices[n],
            centroid=centroid,
            radius=2.0,
            owner_atoms=(a,),
            relevant_atoms=tuple(indices[lo:hi].tolist()),
        )
        for i, (n, centroid, a, lo, hi) in enumerate(
            zip(points.tolist(), centroids, atom_of.tolist(), ends, ends[1:])
        )
    )
    rows = np.arange(atom_of.shape[0], dtype=np.int64)  # a row per batch
    return BatchList(batches, BatchArrays(points, centroids, radii, rows, indptr, indices))
