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
:class:`BatchViews` list (:func:`build_batch_views`): a view fuses the
batches that share one column set along points and names their rows,
their basis columns and so the matching ``P`` / ``H`` sub-block.  Dense
is the same loop with a different column rule — the functions of the
batches' ``relevant_atoms``, outside which a full evaluation is exactly
zero — so it drops no number, only flops on zeros.

Threshold semantics (``RunSettings.screening_threshold``):

* ``0.0`` — screening disabled.  No pattern is built and a view's
  columns are those of its batches' relevant atoms: the only columns a
  hard radial cutoff leaves nonzero there, so nothing is approximated.
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
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atoms.structure import Structure
from repro.basis.basis_set import BasisSet, _species_shells, effective_shell_radius
from repro.config import RunSettings, get_settings
from repro.errors import GridError
from repro.grids.batching import (
    GridBatch,
    batch_arrays,
    fragments_per_atom,
    summary_overlaps,
)
from repro.utils.neighbors import sphere_overlaps

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
) -> SparsityPattern:
    """Screen every batch against every function's effective reach.

    A function ``mu`` is active on a batch when the batch's bounding
    sphere intersects the function's screened cutoff sphere:
    ``|centroid - R_mu| <= r_eff(mu, threshold) + batch.radius``.
    Because ``r_eff`` never exceeds the hard cutoff, active atoms are
    always a subset of the batch's geometric ``relevant_atoms`` — which
    is what makes compact screened blocks bitwise slices of the dense
    ones.
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
    # One search at function level: each function sits on its atom, and
    # row b of the CSR *is* batch b's active set.
    _, centroids, radii, _, _ = batch_arrays(batches)
    indptr, indices = sphere_overlaps(centroids, radii, coords[fn_atom], fn_cut)
    active_functions = np.split(indices, indptr[1:-1]) if len(batches) else []
    active_atoms: List[Tuple[int, ...]] = []
    block_mask = np.zeros((n_atoms, n_atoms), dtype=bool)
    for act in active_functions:
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


#: Most grid points one fused view holds.  Measured on the 32-atom chain's
#: warm dense Sumup + H sweep before column sets merged (BLAS on one
#: thread, min of 25, two runs): cap 128 -> 56-70 ms, 512 -> 42.5-45.0,
#: 1 024 -> 41.4-43.2, 2 048 -> 39.8-41.7, 4 096 and 16 384 -> 39.0-41.4.
#: Merged groups outgrow it (uncapped, the largest holds 2.8 k rows on
#: the 26-atom chain and 2.2 k on the 32-atom one); re-measured with them
#: (median of 12, dense / screened, one process per chain): 26 atoms
#: 1 024 -> 21.2 / 21.0 ms, 2 048 -> 20.9 / 20.5, 4 096 -> 21.0 / 20.7;
#: 32 atoms 31.7 / 32.7, 31.4 / 31.5, 31.2 / 31.9; 98 atoms dense 146.4
#: at 2 048 and 146.0 at 4 096.  A 2 048-row block is
#: 2.9 MB on the 26-atom chain and 1.8 MB on the 32-atom one, so a cache
#: budget of a quarter of the table (7.1 MB there) still holds three.
#: Not a setting: where the rows are cut decides the summation order, and
#: every engine and every run must cut at the same rows.
MAX_VIEW_ROWS: int = 2048

#: Fixed price of one view in the merge rule, in the rule's unit (one
#: row x column**2 of Gram work): what a view's dispatch, gather and
#: scatter cost beside its flops.  Measured as the warm Sumup + H sweep
#: against the constant (window 5, BLAS on one thread, median of 12, one
#: process per line): 32 atoms dense / screened unmerged 38.1 / 48.7 ms
#: (44 / 102 views), 5e5 35.0 / 37.2, 1e6 33.9 / 36.6, 2e6 35.4 / 36.1
#: (15 / 16), 4e6 35.8 / 36.3, 8e6 34.9 / 36.1; 98 atoms screened 2e6
#: 165 ms (161 views), 4e6 156 (99), 8e6 156 (77), 1.6e7 159 (61).  4e6
#: pads 6-8.5 % of the 98-atom blocks against 3-5 % and raised the
#: 32-atom benchmark's peak RSS by 3.2 % against 2.4 %, for ~5 % of a
#: 98-atom sweep: 2e6.
VIEW_COST: float = 2e6

#: How many neighbours, in first-appearance order, a column set may
#: merge with.  At 32 atoms windows of 3, 5 and 8 read 34.9 / 36.5,
#: 35.4 / 36.1 and 34.5 / 33.1 ms (the process above); 8 leaves 136 /
#: 140 views at 98 atoms against 157 / 161, at the same sweep time.
MERGE_WINDOW: int = 5


def view_cost(rows: int, n_cols: int) -> float:
    """The merge rule's price of one column set over *rows* grid points:
    its Gram work plus :data:`VIEW_COST` per view the row cap cuts it into.

    >>> view_cost(100, 10) == 100 * 10**2 + VIEW_COST
    True
    """
    return rows * n_cols**2 + VIEW_COST * -(-rows // MAX_VIEW_ROWS)


def merge_column_sets(
    rows: Sequence[int], sets: Sequence[int]
) -> List[List[int]]:
    """Which column sets to fuse: a partition of ``range(len(rows))``.

    Set ``g`` covers ``rows[g]`` grid points and holds the columns whose
    bits are set in the integer ``sets[g]``; the sets arrive in
    first-appearance batch order, which is the cut-plane leaf order, so
    neighbours are near in space.  Greedily, the pair of sets at most
    :data:`MERGE_WINDOW` apart whose union saves the most
    :func:`view_cost` is merged into the earlier one, until no pair within
    the window saves anything.  Candidate pairs sit in a heap; a pair
    whose member has merged since it was pushed is skipped when popped,
    and a merged set offers itself to its window again — so the whole
    merge is ``O(G W log G)`` for ``G`` sets.  A part lists its sets in
    order; parts come in the order of their first set.

    Two small sets merge; a wide one over many points would pay more in
    padding than the view it saves:

    >>> merge_column_sets([10, 10, 2000], [0b111, 0b011, ((1 << 200) - 1) << 3])
    [[0, 1], [2]]
    """
    n = len(rows)
    rows, sets = list(rows), list(sets)
    cost = [view_cost(r, s.bit_count()) for r, s in zip(rows, sets)]
    parts = [[g] for g in range(n)]
    after, before = list(range(1, n + 1)), list(range(-1, n - 1))
    version = [0] * n  # -1 once merged away
    heap: List[Tuple[float, int, int, int, int, float, int]] = []

    def offer(g: int, h: int) -> None:
        union = sets[g] | sets[h]
        merged = view_cost(rows[g] + rows[h], union.bit_count())
        saving = cost[g] + cost[h] - merged
        if saving > 0:
            heapq.heappush(heap, (-saving, g, h, version[g], version[h], merged, union))

    def neighbours(g: int, step: List[int]) -> Iterator[int]:
        h = step[g]
        for _ in range(MERGE_WINDOW):
            if not 0 <= h < n:
                return
            yield h
            h = step[h]

    for g in range(n):
        for h in neighbours(g, after):
            offer(g, h)
    while heap:
        _, g, h, seen_g, seen_h, merged, union = heapq.heappop(heap)
        if version[g] != seen_g or version[h] != seen_h:
            continue
        rows[g] += rows[h]
        sets[g], cost[g] = union, merged
        parts[g] = sorted(parts[g] + parts[h])
        version[g] += 1
        version[h] = -1
        if before[h] >= 0:
            after[before[h]] = after[h]
        if after[h] < n:
            before[after[h]] = before[h]
        for f in neighbours(g, before):
            offer(f, g)
        for f in neighbours(g, after):
            offer(g, f)
    return [parts[g] for g in range(n) if version[g] >= 0]


def _bits(cols: np.ndarray, n_basis: int) -> int:
    """Sorted column indices as the bits of one integer."""
    mask = np.zeros(n_basis, dtype=bool)
    mask[cols] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class BatchView:
    """Batches with near-identical column sets, fused along points.

    The unit of every grid contraction: ``phi`` is the ``(rows, cols)``
    chi block of :attr:`point_indices`, :meth:`gather` cuts the matching
    ``P`` sub-block and :meth:`scatter_add` is the H scatter.  *cols* is
    always a sorted index array, the union of its member batches' own
    column sets — without a pattern the functions of a batch's
    ``relevant_atoms`` (every other atom's shells are exactly ``+0.0`` on
    its points: compaction, not screening), with one the pattern's active
    functions.  A member's columns outside its own set are its *padding*
    and are ``+0.0`` in the block (:meth:`zero_padding`), so a fused block
    is its batches' blocks side by side, whatever was merged.  Both index
    the operator matrix through *runs*, the maximal stretches of
    consecutive columns as ``(matrix slice, block slice)`` pairs: O(cols)
    to hold, never a ``cols**2`` index table, and a sub-block moves as a
    few strided copies.
    """

    #: Grid rows of the block, member batch after member batch.
    point_indices: np.ndarray
    cols: np.ndarray
    #: Atoms whose shells are evaluated for this view's block.
    atoms: Tuple[int, ...]
    #: Member batch ids in row order.  A batch is a member of one view,
    #: unless it alone exceeds the row cap.
    batches: Tuple[int, ...]
    #: Priced point x function entries: ``rows * n_basis`` when dense,
    #: each member's rows times its own column count when screened (what
    #: the cost models charge; the block itself is ``rows * cols.size``).
    elements: int
    #: Block-cache key parts: which rows, and — ``None`` when dense —
    #: a digest of the members' active sets.
    rows_hash: str
    active_hash: Optional[str]
    runs: Tuple[Tuple[slice, slice], ...]
    #: Member ``i`` holds block rows ``bounds[i]:bounds[i + 1]``.
    bounds: Tuple[int, ...]
    #: Per member: the positions in *cols* outside its own column set.
    padding: Tuple[np.ndarray, ...]

    def zero_padding(self, block: np.ndarray, lo: int = 0) -> None:
        """Set every member's padding to ``+0.0`` in *block*, which holds
        view rows ``lo:`` along its second-to-last axis, in place."""
        hi = lo + block.shape[-2]
        for start, stop, pad in zip(self.bounds, self.bounds[1:], self.padding):
            if pad.size and start < hi and stop > lo:
                block[..., max(start, lo) - lo : min(stop, hi) - lo, pad] = 0.0

    @property
    def padded_elements(self) -> int:
        """Block entries that are padding: held, computed on, always zero."""
        return sum(
            (stop - start) * pad.size
            for start, stop, pad in zip(self.bounds, self.bounds[1:], self.padding)
        )

    def gather(self, matrix: np.ndarray, upper: bool = False) -> np.ndarray:
        """``matrix[cols][:, cols]`` as a new C-contiguous array.

        With *upper* only the run pairs on and above the diagonal are
        copied and the rest is zero — all an upper-triangular *matrix*
        has, for half the traffic.
        """
        size = self.cols.size
        block = np.zeros((size, size)) if upper else np.empty((size, size))
        for i, (rows_m, rows_b) in enumerate(self.runs):
            for cols_m, cols_b in self.runs[i if upper else 0 :]:
                block[rows_b, cols_b] = matrix[rows_m, cols_m]
        return block

    def scatter_add(
        self, matrix: np.ndarray, block: np.ndarray, upper: bool = False
    ) -> None:
        """``matrix[cols][:, cols] += block``, in place.

        With *upper* only the run pairs on and above the diagonal are
        added: every entry of *matrix* on or above its diagonal is then
        complete and the strict lower triangle is not — all a symmetric
        accumulator needs before it is mirrored, for half the traffic.
        """
        for i, (rows_m, rows_b) in enumerate(self.runs):
            into, rows = matrix[rows_m], block[rows_b]
            for cols_m, cols_b in self.runs[i if upper else 0 :]:
                target = into[:, cols_m]
                target += rows[:, cols_b]


def _column_runs(cols: np.ndarray) -> Tuple[Tuple[slice, slice], ...]:
    """Maximal runs of consecutive entries of sorted *cols*, each as the
    slice of the full index range and the slice of *cols* it occupies."""
    breaks = np.flatnonzero(np.diff(cols) != 1) + 1
    starts = [0, *breaks.tolist()]
    stops = [*breaks.tolist(), cols.size]
    return tuple(
        (slice(int(cols[a]), int(cols[a]) + z - a), slice(a, z))
        for a, z in zip(starts, stops)
    )


@dataclass(frozen=True)
class BatchViews:
    """The fused views of some batches, plus the sizes phases price from.

    Batches whose column set is empty carry no view (nothing to
    contract, nothing to launch) but still count in *n_points*, so the
    per-point averages are over the whole grid.  The priced fields do
    not know about fusion, merging or compaction: they are what one view
    per batch, all columns wide when dense, would total.
    """

    views: Tuple[BatchView, ...]
    #: Whether a pattern shaped the views (kernel names carry it).
    screened: bool
    n_points: int
    #: Batches with work — the work-groups a device launch schedules.
    n_batches: int
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

    @property
    def padded_fraction(self) -> float:
        """Share of the views' block entries that are merge padding."""
        held = sum(v.point_indices.size * v.cols.size for v in self.views)
        return sum(v.padded_elements for v in self.views) / max(held, 1)


def _pack_rows(
    members: Sequence[Tuple[GridBatch, int]],
) -> List[List[Tuple[int, np.ndarray, int]]]:
    """*members* — ``(batch, column set)`` pairs — in order, packed into
    runs of at most :data:`MAX_VIEW_ROWS` rows as ``(batch id, point
    indices, column set)`` pieces.

    A run ends where the next batch would not fit, so a batch lies in one
    view whole; only a batch larger than the cap is cut, into pieces of
    its own.
    """
    packs: List[List[Tuple[int, np.ndarray, int]]] = []
    current: List[Tuple[int, np.ndarray, int]] = []
    held = 0
    for b, s in members:
        for lo in range(0, b.n_points, MAX_VIEW_ROWS):
            piece = b.point_indices[lo : lo + MAX_VIEW_ROWS]
            if held + piece.size > MAX_VIEW_ROWS:
                packs.append(current)
                current, held = [], 0
            current.append((b.index, piece, s))
            held += piece.size
    if current:
        packs.append(current)
    return packs


def build_batch_views(
    batches: Sequence[GridBatch],
    basis: BasisSet,
    pattern: Optional[SparsityPattern] = None,
) -> BatchViews:
    """Fuse *batches* into views: one group per column set, near-identical
    sets merged (:func:`merge_column_sets`), cut at the cap.

    Column sets form in first-appearance batch order, a merged group's
    members keep batch order, and they are packed whole into views of at
    most :data:`MAX_VIEW_ROWS` rows whose columns are the union of their
    members' — so the result depends on the batch list alone.  This is
    the only place that knows dense from screened; every consumer
    iterates the result without branching, and a consumer whose unit is
    a batch (the reference seam) or a rank's share (the conformance
    matrix) calls it on just those batches.
    """
    # One entry per distinct column set, in first-appearance order: (cols,
    # atoms, active-set digest, member batches); ``index`` finds it by key.
    index: Dict[object, int] = {}
    sets: List[Tuple[np.ndarray, Tuple[int, ...], Optional[str], List[GridBatch]]] = []
    for b in batches:
        if pattern is None:
            key: object = b.relevant_atoms
            if key not in index:
                cols = np.flatnonzero(np.isin(basis.function_atoms, key))
                index[key] = len(sets)
                sets.append((cols, key, None, []))
        else:
            act = pattern.active_functions[b.index]
            key = act.tobytes()
            if key not in index:
                index[key] = len(sets)
                sets.append(
                    (act, pattern.active_atoms[b.index], pattern.active_hash(b.index), [])
                )
        sets[index[key]][3].append(b)

    working = [s for s, (cols, *_) in enumerate(sets) if cols.size]
    parts = merge_column_sets(
        [sum(b.n_points for b in sets[s][3]) for s in working],
        [_bits(sets[s][0], basis.n_basis) for s in working],
    )
    position = {b.index: i for i, b in enumerate(batches)}
    views: List[BatchView] = []
    for part in parts:
        members = sorted(
            ((b, s) for s in (working[g] for g in part) for b in sets[s][3]),
            key=lambda member: position[member[0].index],
        )
        for pack in _pack_rows(members):
            views.append(_fused_view(pack, sets, basis.n_basis, pattern is None))

    priced = [  # (points, priced width) per scheduled batch
        (b.n_points, basis.n_basis if pattern is None else sets[s][0].size)
        for s in working
        for b in sets[s][3]
    ]
    return BatchViews(
        views=tuple(views),
        screened=pattern is not None,
        n_points=sum(b.n_points for b in batches),
        n_batches=len(priced),
        elements=sum(n * c for n, c in priced),
        elements_sq=sum(n * c**2 for n, c in priced),
        matrix_nnz=basis.n_basis**2 if pattern is None else pattern.matrix_nnz,
    )


def _fused_view(pack, sets, n_basis: int, dense: bool) -> BatchView:
    """One view of a pack of ``(batch id, rows, column set)`` pieces: the
    union of the pieces' column sets, and each piece's padding in it."""
    own = sorted({s for _, _, s in pack})
    if len(own) == 1:
        cols, atoms, active_hash, _ = sets[own[0]]
    else:
        cols = np.unique(np.concatenate([sets[s][0] for s in own]))
        atoms = tuple(sorted({a for s in own for a in sets[s][1]}))
        active_hash = None if dense else hashlib.sha1(
            " ".join(sets[s][2] for _, _, s in pack).encode()
        ).hexdigest()[:16]
    padding = {}
    for s in own:
        outside = np.ones(cols.size, dtype=bool)
        outside[np.searchsorted(cols, sets[s][0])] = False
        padding[s] = np.flatnonzero(outside)
    rows = np.concatenate([piece for _, piece, _ in pack])
    sizes = [piece.size for _, piece, _ in pack]
    return BatchView(
        point_indices=rows,
        cols=cols,
        atoms=atoms,
        batches=tuple(b for b, _, _ in pack),
        elements=sum(
            size * (n_basis if dense else sets[s][0].size)
            for size, (_, _, s) in zip(sizes, pack)
        ),
        rows_hash=hashlib.sha1(rows.tobytes()).hexdigest()[:16],
        active_hash=active_hash,
        runs=_column_runs(cols),
        bounds=tuple(np.cumsum([0] + sizes).tolist()),
        padding=tuple(padding[s] for _, _, s in pack),
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


def modeled_block_counts(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    threshold: float = 1e-6,
    target_points: Optional[int] = None,
) -> Dict[str, float]:
    """Screened vs dense block counts for a modeled-scale structure.

    Applies the screening rule of :func:`build_sparsity_pattern` to the
    *summary* batches of :func:`repro.core.workload.synthetic_batches`
    without building them: every summary batch sits on its atom with the
    same ``SUMMARY_BATCH_RADIUS`` envelope, so the per-atom rows of
    :func:`~repro.grids.batching.summary_overlaps` yield the (batch, atom)
    block and element totals directly.  Near-linear in ``n_atoms`` — this is what
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
    n_frag = fragments_per_atom(ppa, target_points)
    basis_counts = atom_basis_counts(structure)
    n_basis = int(basis_counts.sum())
    cutoffs = screened_atom_cutoffs_light(structure, threshold)

    # Every summary batch of an atom sees what the atom's envelope sees.
    indptr, indices = summary_overlaps(coords, cutoffs)
    nbr_basis = np.add.reduceat(basis_counts[indices], indptr[:-1])
    blocks_active = int((n_frag * np.diff(indptr)).sum())
    elements_active = int((ppa * nbr_basis).sum())

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
