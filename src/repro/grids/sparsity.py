"""Batch-local basis screening: which columns each grid batch contracts.

NAO basis functions have finite radial extent, so on a spatially compact
:class:`~repro.grids.batching.GridBatch` only the functions of its
``relevant_atoms`` can be nonzero — every other shell is exactly ``+0.0``
on its points (Huhn et al., arXiv:1912.06636).  Those functions are a
batch's columns.  Every grid contraction below the drivers is one loop
over the :class:`BatchViews` of :func:`build_batch_views`: a view fuses
the batches that share a column set along points and names their rows,
their columns and so the matching ``P`` / ``H`` sub-block.

Screening is a mask on those columns (``RunSettings.screening_threshold``):

* ``0.0`` — no mask.  A batch contracts every function of its relevant
  atoms, so nothing is approximated: dense is the all-active case.
* ``> 0.0`` — a function ``f`` stays on batch ``b`` only while
  ``|c_b - R_f| <= rho_b + r_eff(f, threshold)``, the batch's bounding
  sphere against the function's screened reach.  Every engine shares the
  views, so engines stay bit-identical to *each other*; agreement with the
  unscreened views is a physics-tolerance statement checked by the
  ``screening_vs_dense`` invariant and the differential-conformance
  ``screening`` axis.

Both builds are priced as they run: a view's :attr:`BatchView.elements`
is each member's rows times its own column count, and
:class:`SparsityStats` says what the mask kept of what compaction runs.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.basis.basis_set import BasisSet
from repro.grids.batching import BatchArrays, GridBatch, batch_arrays
from repro.utils.neighbors import ranges

#: Threshold used when screening is requested without an explicit value
#: (``repro physics --screening``): tight enough that light-basis
#: physics stays within every golden tolerance.
DEFAULT_SCREENING_THRESHOLD: float = 1e-6


@dataclass(frozen=True)
class SparsityStats:
    """What the screening mask kept of what compaction runs.

    ``blocks_*`` count (batch, atom) basis blocks and ``elements_*``
    grid-point x function entries, summed over the batches of one view
    set: ``*_relevant`` over every function of each batch's
    ``relevant_atoms``, ``*_active`` over the columns the mask keeps.
    Unscreened views keep everything, so both ratios read 1.
    """

    blocks_active: int
    blocks_relevant: int
    elements_active: int
    elements_relevant: int

    @property
    def fill_fraction(self) -> float:
        """Share of the relevant elements the mask keeps (<= 1)."""
        return self.elements_active / max(self.elements_relevant, 1)

    @property
    def block_reduction(self) -> float:
        """Relevant over active block count (>= 1; higher is sparser)."""
        return self.blocks_relevant / max(self.blocks_active, 1)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (flows into the sparse benchmark)."""
        return {
            "blocks_active": self.blocks_active,
            "blocks_relevant": self.blocks_relevant,
            "block_reduction": self.block_reduction,
            "elements_active": self.elements_active,
            "elements_relevant": self.elements_relevant,
            "fill_fraction": self.fill_fraction,
        }


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
    column sets (the functions of each batch's ``relevant_atoms``, masked
    when screened).  A member's columns outside its own set are its
    *padding* and are ``+0.0`` in the block (:meth:`zero_padding`), so a
    fused block is its batches' blocks side by side, whatever was merged.
    Both index the operator matrix through *runs*, the maximal stretches
    of consecutive columns as ``(matrix slice, block slice)`` pairs:
    O(cols) to hold, never a ``cols**2`` index table, and a sub-block
    moves as a few strided copies.
    """

    #: Grid rows of the block, member batch after member batch.
    point_indices: np.ndarray
    cols: np.ndarray
    #: Atoms whose shells are evaluated for this view's block.
    atoms: Tuple[int, ...]
    #: Member batch ids in row order.  A batch is a member of one view,
    #: unless it alone exceeds the row cap.
    batches: Tuple[int, ...]
    #: Priced point x function entries: each member's rows times its own
    #: column count, padding excluded (the block is ``rows * cols.size``).
    elements: int
    #: Block-cache key parts: which rows, and — ``None`` when unscreened —
    #: a digest of the members' column sets.
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
    not know about fusion or merging: they are what one view per batch,
    each its own column set wide, would total.
    """

    views: Tuple[BatchView, ...]
    #: Whether a screening mask shaped the views (kernel names carry it).
    screened: bool
    n_points: int
    #: Batches with work — the work-groups a device launch schedules.
    n_batches: int
    #: Grid-point x function entries one Sumup/H pass contracts.
    elements: int
    stats: SparsityStats

    def __iter__(self) -> Iterator[BatchView]:
        return iter(self.views)

    def __len__(self) -> int:
        return len(self.views)

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


def batch_columns(
    arrays: BatchArrays, basis: BasisSet, threshold: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, cols)``: row ``b`` lists, ascending, the columns batch
    ``b`` contracts — every function of its relevant atoms, and when
    *threshold* ``> 0`` only those with ``|c_b - R_f| <= rho_b + r_eff(f)``.

    One array program over the batch -> atom CSR of *arrays*, expanded to
    functions by ``basis.atom_offsets``.  The comparison is the one
    :func:`~repro.utils.neighbors.sphere_overlaps` makes, and ``r_eff``
    never exceeds an atom's cutoff, so the rows are exactly that search's
    over all functions: the mask drops columns, never adds an atom.
    """
    row_start = arrays.indptr[arrays.rows]
    row_len = arrays.indptr[arrays.rows + 1] - row_start
    atoms = arrays.indices[ranges(row_start, row_len)]  # each batch's row, as read
    first = basis.atom_offsets[atoms]
    width = basis.atom_offsets[atoms + 1] - first  # functions per (batch, atom)
    pair_batch = np.repeat(np.arange(len(arrays.points)), row_len)
    cols = ranges(first, width).astype(np.int64, copy=False)
    col_batch = np.repeat(pair_batch, width)
    if threshold > 0.0:
        reach = basis.screened_function_cutoffs(threshold)
        dist = np.linalg.norm(
            arrays.centroids[pair_batch] - basis.structure.coords[atoms], axis=1
        )
        keep = np.repeat(dist, width) <= arrays.radii[col_batch] + reach[cols]
        cols, col_batch = cols[keep], col_batch[keep]
    return np.searchsorted(col_batch, np.arange(len(arrays.points) + 1)), cols


def build_batch_views(
    batches: Sequence[GridBatch], basis: BasisSet, threshold: float = 0.0
) -> BatchViews:
    """Fuse *batches* into views: one group per column set
    (:func:`batch_columns`), near-identical sets merged
    (:func:`merge_column_sets`), cut at the cap.

    Column sets form in first-appearance batch order, a merged group's
    members keep batch order, and they are packed whole into views of at
    most :data:`MAX_VIEW_ROWS` rows whose columns are the union of their
    members' — so the result depends on the batch list and the threshold
    alone.  Every consumer iterates the result without branching; one
    whose unit is a batch (the reference seam) or a rank's share (the
    conformance matrix) calls it on just those batches.
    """
    screened = threshold > 0.0
    arrays = batch_arrays(batches)
    indptr, cols = batch_columns(arrays, basis, threshold)
    # One entry per distinct column set, in first-appearance order: (cols,
    # atoms, set digest when screened, member batches); ``index`` finds it.
    index: Dict[bytes, int] = {}
    sets: List[Tuple[np.ndarray, Tuple[int, ...], Optional[str], List[GridBatch]]] = []
    ends = indptr.tolist()
    for b, lo, hi in zip(batches, ends, ends[1:]):
        own = cols[lo:hi]
        key = own.tobytes()
        if key not in index:
            index[key] = len(sets)
            owner = basis.function_atoms[own]  # ascending, like *own*
            atoms = tuple(owner[np.diff(owner, prepend=-1) != 0].tolist())
            digest = hashlib.sha1(key).hexdigest()[:16] if screened else None
            sets.append((own.copy(), atoms, digest, []))  # not a view of *cols*
        sets[index[key]][3].append(b)

    working = [s for s, (own, *_) in enumerate(sets) if own.size]
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
            views.append(_fused_view(pack, sets, screened))

    priced = [  # (points, own width) per scheduled batch
        (b.n_points, sets[s][0].size) for s in working for b in sets[s][3]
    ]
    elements = sum(n * c for n, c in priced)
    pair_points = np.repeat(arrays.points, np.diff(arrays.indptr))
    pair_width = np.diff(basis.atom_offsets)[arrays.indices]
    return BatchViews(
        views=tuple(views),
        screened=screened,
        n_points=int(arrays.points.sum()),
        n_batches=len(priced),
        elements=elements,
        stats=SparsityStats(
            blocks_active=sum(len(atoms) * len(members) for _, atoms, _, members in sets),
            blocks_relevant=int(arrays.indices.size),
            elements_active=elements,
            elements_relevant=int(pair_points @ pair_width),
        ),
    )


def _fused_view(pack, sets, screened: bool) -> BatchView:
    """One view of a pack of ``(batch id, rows, column set)`` pieces: the
    union of the pieces' column sets, and each piece's padding in it."""
    own = sorted({s for _, _, s in pack})
    if len(own) == 1:
        cols, atoms, active_hash, _ = sets[own[0]]
    else:
        cols = np.unique(np.concatenate([sets[s][0] for s in own]))
        atoms = tuple(sorted({a for s in own for a in sets[s][1]}))
        active_hash = hashlib.sha1(
            " ".join(sets[s][2] for _, _, s in pack).encode()
        ).hexdigest()[:16] if screened else None
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
        elements=sum(size * sets[s][0].size for size, (_, _, s) in zip(sizes, pack)),
        rows_hash=hashlib.sha1(rows.tobytes()).hexdigest()[:16],
        active_hash=active_hash,
        runs=_column_runs(cols),
        bounds=tuple(np.cumsum([0] + sizes).tolist()),
        padding=tuple(padding[s] for _, _, s in pack),
    )
