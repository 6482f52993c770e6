"""Batch-local basis screening: the block-sparsity seam of the pipeline.

NAO basis functions have finite radial extent, so on any spatially
compact :class:`~repro.grids.batching.GridBatch` only the functions
whose screened reach touches the batch's bounding sphere are
non-negligible (Huhn et al., arXiv:1912.06636).  A
:class:`SparsityPattern` records exactly that — per-batch active
function indices, per-batch active atoms, and the atom-pair block mask
their union implies — built **once per structure** and shared by every
execution backend, which is what turns the dense ``O(n_points x
n_basis)`` contractions into block-sparse ones at scale.

Every grid contraction below the drivers is one loop over a
:class:`BatchViews` list (:func:`build_batch_views`): a view names a
batch's points, its basis columns and the matching ``P`` / ``H``
sub-block, and the dense case is simply the view whose columns are
"all" — numpy slices, which gather nothing, so the dense floating-point
sequence is the plain ``phi @ p`` / ``acc += block`` one.

Threshold semantics (``RunSettings.screening_threshold``):

* ``0.0`` — screening disabled.  No pattern is built and the loop runs
  over all-column slice views, so results are *bitwise* identical to
  the unscreened pipeline.
* ``> 0.0`` — functions whose amplitude proxy stays below the threshold
  on a batch are dropped from that batch's view.  Both backends
  share the same views and the same batch-ordered math, so they remain
  bit-identical to *each other*; agreement with the dense path is a
  physics-tolerance statement checked by the ``screening_vs_dense``
  invariant and the differential-conformance ``screening`` axis.

:func:`modeled_block_counts` applies the same screening rule to the
summary batches of :func:`repro.core.workload.synthetic_batches`
without materializing them, extending the modeled-scale experiments
past the paper's 200 012-atom ceiling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atoms.structure import Structure
from repro.basis.basis_set import BasisSet, _species_shells, effective_shell_radius
from repro.config import RunSettings, get_settings
from repro.errors import GridError
from repro.grids.batching import GridBatch

#: Threshold used when screening is requested without an explicit value
#: (``repro physics --screening``): tight enough that light-basis
#: physics stays within every golden tolerance, loose enough that long
#: polymer chains screen away most of each batch's basis.
DEFAULT_SCREENING_THRESHOLD: float = 1e-6


def active_fraction_histogram(
    fractions: Sequence[float], bins: int = 10
) -> Tuple[int, ...]:
    """Histogram of per-batch active fractions over ``[0, 1]``.

    The screened-elements histogram surfaced in backend profiles and run
    reports: bin ``k`` counts batches whose active-function fraction
    falls in ``[k/bins, (k+1)/bins)`` (last bin closed).

    >>> active_fraction_histogram([0.0, 0.05, 0.5, 1.0], bins=4)
    (2, 0, 1, 1)
    """
    counts, _ = np.histogram(
        np.asarray(list(fractions), dtype=float), bins=bins, range=(0.0, 1.0)
    )
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class SparsityStats:
    """Structure-level size accounting of one :class:`SparsityPattern`.

    ``blocks_*`` count (batch, atom) basis blocks — the unit of work a
    screened phase launches; ``elements_*`` count grid-point x function
    entries of the batch chi tables.  ``fill_fraction`` is
    ``elements_active / elements_dense``; the payoff target of the
    refactor is ``block_reduction >= 3`` on the polymer chain.
    """

    n_batches: int
    n_atoms: int
    n_basis: int
    n_grid_points: int
    blocks_active: int
    blocks_dense: int
    elements_active: int
    elements_dense: int
    fill_fraction: float
    histogram: Tuple[int, ...]

    @property
    def block_reduction(self) -> float:
        """Dense over active block count (>= 1; higher is sparser)."""
        return self.blocks_dense / max(self.blocks_active, 1)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (flows into profiles and reports)."""
        return {
            "n_batches": self.n_batches,
            "n_atoms": self.n_atoms,
            "n_basis": self.n_basis,
            "n_grid_points": self.n_grid_points,
            "blocks_active": self.blocks_active,
            "blocks_dense": self.blocks_dense,
            "block_reduction": self.block_reduction,
            "elements_active": self.elements_active,
            "elements_dense": self.elements_dense,
            "fill_fraction": self.fill_fraction,
            "histogram": list(self.histogram),
        }


class SparsityPattern:
    """Who is non-negligible where: the structure's screening decisions.

    Built once by :func:`build_sparsity_pattern` and handed to every
    layer below the drivers as :func:`build_batch_views` views: blocks
    carry only :attr:`active_functions`, evaluate only
    :attr:`active_atoms`, key block caches on :meth:`active_hash`, and
    add contributions into the atom-pair blocks of :attr:`block_mask`.
    """

    def __init__(
        self,
        threshold: float,
        n_basis: int,
        n_atoms: int,
        active_functions: List[np.ndarray],
        active_atoms: List[Tuple[int, ...]],
        block_mask: np.ndarray,
        batch_points: Sequence[int],
        matrix_nnz: int = 0,
    ) -> None:
        self.threshold = float(threshold)
        self.n_basis = int(n_basis)
        self.n_atoms = int(n_atoms)
        #: Per batch: sorted flat indices of the active basis functions.
        self.active_functions = active_functions
        #: Per batch: sorted atom ids owning at least one active function.
        self.active_atoms = active_atoms
        #: ``(n_atoms, n_atoms)`` bool — atom pairs co-active on >= 1 batch,
        #: i.e. the H/S atom blocks that receive grid contributions.
        self.block_mask = block_mask
        #: Function-pair entries inside the block mask — the element
        #: count of one block-sparse operator matrix (DM-phase pricing).
        self.matrix_nnz = int(matrix_nnz)
        self._hashes = [
            hashlib.sha1(act.tobytes()).hexdigest()[:16] for act in active_functions
        ]
        batch_points = [int(n) for n in batch_points]
        sizes = np.array([act.size for act in active_functions], dtype=np.int64)
        pts = np.array(batch_points, dtype=np.int64)
        self.stats = SparsityStats(
            n_batches=len(active_functions),
            n_atoms=self.n_atoms,
            n_basis=self.n_basis,
            n_grid_points=int(pts.sum()),
            blocks_active=int(sum(len(a) for a in active_atoms)),
            blocks_dense=len(active_functions) * self.n_atoms,
            elements_active=int((pts * sizes).sum()),
            elements_dense=int(pts.sum()) * self.n_basis,
            fill_fraction=float((pts * sizes).sum())
            / max(int(pts.sum()) * self.n_basis, 1),
            histogram=active_fraction_histogram(sizes / max(self.n_basis, 1)),
        )

    @property
    def n_batches(self) -> int:
        """Number of batches the pattern covers."""
        return len(self.active_functions)

    def active_hash(self, batch_index: int) -> str:
        """Stable digest of one batch's active set (block-cache key part).

        Two pattern instances assigning the same active functions to a
        batch share the hash, so LRU entries keyed on ``(batch,
        active_hash)`` are reusable exactly when the cached compact
        block is bitwise valid.
        """
        return self._hashes[batch_index]

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"SparsityPattern(threshold={self.threshold:g}, "
            f"batches={s.n_batches}, fill={s.fill_fraction:.3f}, "
            f"block_reduction={s.block_reduction:.2f})"
        )


def build_sparsity_pattern(
    basis: BasisSet,
    batches: Sequence[GridBatch],
    threshold: float,
    chunk: int = 256,
) -> SparsityPattern:
    """Screen every batch against every function's effective reach.

    A function ``mu`` is active on a batch when the batch's bounding
    sphere intersects the function's screened cutoff sphere:
    ``|centroid - R_mu| <= r_eff(mu, threshold) + batch.radius``.
    Because ``r_eff`` never exceeds the hard cutoff, active atoms are
    always a subset of the batch's geometric ``relevant_atoms`` — which
    is what makes compact screened blocks bitwise slices of the dense
    ones.  Chunked over batches to bound the distance matrix at
    ``(chunk, n_atoms)``.
    """
    if threshold <= 0.0:
        raise GridError(
            f"screening threshold must be > 0 to build a pattern, got "
            f"{threshold!r}; threshold 0 means screening is disabled"
        )
    fn_cut = basis.screened_function_cutoffs(threshold)
    fn_atom = basis.function_atoms
    coords = basis.structure.coords
    n_atoms = basis.structure.n_atoms
    centroids = np.array([b.centroid for b in batches])
    radii = np.array([b.radius for b in batches])

    active_functions: List[np.ndarray] = []
    active_atoms: List[Tuple[int, ...]] = []
    block_mask = np.zeros((n_atoms, n_atoms), dtype=bool)
    for start in range(0, len(batches), chunk):
        stop = min(start + chunk, len(batches))
        # (chunk, n_atoms) centroid->atom distances, broadcast to the
        # function level through each function's owning atom.
        d = np.linalg.norm(
            centroids[start:stop, None, :] - coords[None, :, :], axis=2
        )
        hits = d[:, fn_atom] <= fn_cut[None, :] + radii[start:stop, None]
        for row in range(stop - start):
            act = np.nonzero(hits[row])[0].astype(np.int64)
            active_functions.append(act)
            aa = np.unique(fn_atom[act])
            active_atoms.append(tuple(int(a) for a in aa))
            block_mask[np.ix_(aa, aa)] = True

    fn_counts = np.bincount(fn_atom, minlength=n_atoms)
    return SparsityPattern(
        threshold=threshold,
        n_basis=basis.n_basis,
        n_atoms=n_atoms,
        active_functions=active_functions,
        active_atoms=active_atoms,
        block_mask=block_mask,
        batch_points=[b.n_points for b in batches],
        matrix_nnz=int(fn_counts @ block_mask @ fn_counts),
    )


@dataclass(frozen=True)
class BatchView:
    """One batch as every grid contraction sees it.

    ``phi[:, cols]`` is the batch's chi block, ``p[pair]`` the matching
    density sub-block and ``acc[pair] += block`` the H scatter.  On the
    dense view *cols* and *pair* are ``slice(None)`` — numpy hands back
    views, so nothing is gathered and the operation order is exactly
    the plain ``phi @ p`` / ``acc += block`` one.  On a screened view
    they are the batch's sorted active-function indices and their
    ``np.ix_`` pair, computed once here rather than on every sweep.
    """

    index: int
    point_indices: np.ndarray
    cols: Union[slice, np.ndarray]
    pair: Tuple
    #: Atoms whose shells are evaluated for this batch's block.
    atoms: Tuple[int, ...]
    #: Block-cache key part: the active-set digest, ``None`` when dense.
    active_hash: Optional[str] = None


@dataclass(frozen=True)
class BatchViews:
    """A builder's views in batch order, plus the sizes phases price from.

    Batches whose active set is empty carry no view (nothing to
    contract, nothing to launch) but still count in *n_points*, so the
    per-point averages are over the whole grid.
    """

    views: Tuple[BatchView, ...]
    #: Whether a pattern shaped the views (kernel names carry it).
    screened: bool
    n_points: int
    #: Grid-point x function entries one Sumup/H pass contracts.
    elements: int
    #: ``sum(points * n_cols**2)`` — the per-point ``cols x cols`` work.
    elements_sq: int
    #: Function-pair entries an operator matrix carries (DM pricing).
    matrix_nnz: int

    def __iter__(self) -> Iterator[BatchView]:
        return iter(self.views)

    def __len__(self) -> int:
        return len(self.views)

    @property
    def avg_cols(self) -> float:
        """Mean column count per grid point (``n_basis`` when dense)."""
        return self.elements / max(self.n_points, 1)

    @property
    def avg_cols_sq(self) -> float:
        """Mean squared column count per grid point."""
        return self.elements_sq / max(self.n_points, 1)


def build_batch_views(
    batches: Sequence[GridBatch],
    n_basis: int,
    pattern: Optional[SparsityPattern] = None,
) -> BatchViews:
    """The view list of one builder: dense without *pattern*, else screened.

    This is the only place that knows the two cases apart; every
    consumer iterates the result without branching.
    """
    n_points = sum(b.n_points for b in batches)
    if pattern is None:
        everything = slice(None)
        views = tuple(
            BatchView(
                b.index, b.point_indices, everything, (everything, everything),
                b.relevant_atoms,
            )
            for b in batches
        )
        return BatchViews(
            views, False, n_points, n_points * n_basis,
            n_points * n_basis**2, n_basis**2,
        )
    views = []
    for b in batches:
        act = pattern.active_functions[b.index]
        if act.size:
            views.append(
                BatchView(
                    b.index, b.point_indices, act, np.ix_(act, act),
                    pattern.active_atoms[b.index], pattern.active_hash(b.index),
                )
            )
    return BatchViews(
        tuple(views),
        True,
        n_points,
        sum(v.point_indices.size * v.cols.size for v in views),
        sum(v.point_indices.size * v.cols.size**2 for v in views),
        pattern.matrix_nnz,
    )


def screened_atom_cutoffs_light(
    structure: Structure, threshold: float
) -> np.ndarray:
    """Per-atom screened reach from the species radial tables (Bohr).

    The per-atom maximum of what
    :meth:`~repro.basis.basis_set.BasisSet.screened_function_cutoffs`
    gives per function, without a basis object: species-level, cheap for
    million-atom chains.  ``threshold <= 0`` gives the unscreened reaches.
    """
    by_symbol: Dict[str, float] = {}
    out = np.empty(structure.n_atoms)
    for i, (sym, elem) in enumerate(zip(structure.symbols, structure.elements)):
        if sym not in by_symbol:
            by_symbol[sym] = max(
                effective_shell_radius(spline, cutoff, shell.l, threshold)
                for shell, spline, cutoff in _species_shells(sym, elem.z)
            )
        out[i] = by_symbol[sym]
    return out


#: Bounding radius of one summary batch (matches ``synthetic_batches``).
_SUMMARY_BATCH_RADIUS: float = 2.0


def modeled_block_counts(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    threshold: float = 1e-6,
    target_points: Optional[int] = None,
) -> Dict[str, float]:
    """Screened vs dense block counts for a modeled-scale structure.

    Applies the screening rule of :func:`build_sparsity_pattern` to the
    *summary* batches of :func:`repro.core.workload.synthetic_batches`
    without materializing a single batch object: every summary batch
    sits on its atom with a fixed 2.0 Bohr envelope, so a cell-list
    neighbour count over atoms yields the (batch, atom) block and
    element totals directly.  Near-linear in ``n_atoms`` — this is what
    carries the sparsity accounting past the paper's 200 012-atom
    ceiling toward the million-atom regime.
    """
    from repro.core.workload import _points_per_atom
    from repro.mapping.memory_model import atom_basis_counts

    settings = settings or get_settings("light")
    coords = structure.coords
    n_atoms = structure.n_atoms
    if target_points is None:
        target_points = settings.grids.batch_target_points

    ppa = _points_per_atom(structure, settings.grids).astype(np.int64)
    n_frag = np.maximum(1, -(-ppa // int(target_points)))
    basis_counts = atom_basis_counts(structure)
    n_basis = int(basis_counts.sum())
    cutoffs = screened_atom_cutoffs_light(structure, threshold)

    # Cell list sized by the farthest screened reach plus the envelope.
    cell = max(float(cutoffs.max()) + _SUMMARY_BATCH_RADIUS, 1e-6)
    keys = np.floor(coords / cell).astype(np.int64)
    buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for idx, key in enumerate(map(tuple, keys)):
        buckets.setdefault(key, []).append(idx)
    offsets = [
        (dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    ]

    blocks_active = 0
    elements_active = 0
    # One vectorized pass per occupied cell: all its atoms against the
    # candidate atoms of the 27-neighbourhood.
    for key, members in buckets.items():
        cand: List[int] = []
        for off in offsets:
            cand.extend(
                buckets.get((key[0] + off[0], key[1] + off[1], key[2] + off[2]), ())
            )
        cand_arr = np.array(cand, dtype=np.int64)
        mem = np.array(members, dtype=np.int64)
        d = np.linalg.norm(
            coords[mem][:, None, :] - coords[cand_arr][None, :, :], axis=2
        )
        hits = d <= cutoffs[cand_arr][None, :] + _SUMMARY_BATCH_RADIUS
        nbr_blocks = hits.sum(axis=1)  # active atoms per member batch site
        nbr_basis = hits @ basis_counts[cand_arr]  # active functions
        blocks_active += int((n_frag[mem] * nbr_blocks).sum())
        elements_active += int((ppa[mem] * nbr_basis).sum())

    n_batches = int(n_frag.sum())
    n_points = int(ppa.sum())
    blocks_dense = n_batches * n_atoms
    elements_dense = n_points * n_basis
    return {
        "n_atoms": n_atoms,
        "n_basis": n_basis,
        "n_batches": n_batches,
        "n_grid_points": n_points,
        "threshold": float(threshold),
        "blocks_active": blocks_active,
        "blocks_dense": blocks_dense,
        "block_reduction": blocks_dense / max(blocks_active, 1),
        "elements_active": elements_active,
        "elements_dense": elements_dense,
        "fill_fraction": elements_active / max(elements_dense, 1),
    }
