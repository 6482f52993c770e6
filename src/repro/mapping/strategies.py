"""The two task-mapping strategies of Section 3.1.

* :func:`load_balancing_mapping` — the *existing* scheme: each batch
  goes to the rank currently owning the fewest grid points, ignoring
  which atoms the points belong to (Fig. 3(a)).
* :func:`locality_enhancing_mapping` — the paper's Algorithm 1:
  recursive bisection of the batch set, splitting ranks in half and
  batches along the widest-spread coordinate at the grid-point-count
  pivot, so each rank ends up with spatially adjacent batches
  (Fig. 3(b)).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.grids.batching import GridBatch, batch_arrays, batch_points, csr_of_rows
from repro.utils.balance import max_mean_imbalance
from repro.utils.neighbors import ranges

#: Window of ``(rank, atom)`` keys :func:`rank_atom_csr` sorts at once.  A
#: constant, not a setting: a slab is whole ranks, so its distinct pairs are its
#: own and results are bit-for-bit independent of it; it only bounds the
#: key-length temporaries.  10 004 atoms at 2 048 ranks, int32 keys, median of 15
#: calls: 2^15 / 2^16 / 2^17 / 2^18 / 2^20 give 4.3 / 4.3 / 4.7 / 6.0 / 6.5 ms on
#: Alg. 1's 316 883 keys and 29.4 / 23.4 / 23.8 / 24.5 / 27.6 ms on a scattered
#: assignment's 2 069 374 (EXPERIMENTS.md, "A mapping priced over atom rows").
_SLAB_ELEMENTS: int = 1 << 16


def segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Integer sums of ``values[ptr[i]:ptr[i + 1]]``; 0 where ``reduceat`` errs: empty."""
    return np.diff(np.append(0, np.cumsum(values, dtype=np.int64))[ptr])


@dataclass(frozen=True, eq=False)
class BatchAssignment:
    """Result of a mapping: rank ``r`` owns batches
    ``batch_ids[rank_ptr[r]:rank_ptr[r + 1]]``, plus convenience metrics."""

    strategy: str
    n_ranks: int
    rank_ptr: np.ndarray  # (n_ranks + 1,) int64
    batch_ids: np.ndarray  # int64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchAssignment):
            return NotImplemented
        return (self.strategy, self.n_ranks) == (other.strategy, other.n_ranks) and all(
            np.array_equal(a, b)
            for a, b in ((self.rank_ptr, other.rank_ptr), (self.batch_ids, other.batch_ids))
        )

    __hash__ = None  # type: ignore[assignment]  # arrays: equal, never hashed

    @property
    def batches_of_rank(self) -> Tuple[Tuple[int, ...], ...]:
        """Each rank's batch ids as a tuple of Python ints, built on every read."""
        ids, ptr = self.batch_ids.tolist(), self.rank_ptr.tolist()
        return tuple(tuple(ids[a:z]) for a, z in zip(ptr, ptr[1:]))

    def points_per_rank(self, batches: Sequence[GridBatch]) -> np.ndarray:
        """Grid points owned by each rank."""
        slot_ptr, ids = _owned_slots(self, len(batches))
        return segment_sums(batch_points(batches)[ids], slot_ptr)

    def rank_atoms(self, batches: Sequence[GridBatch], use_relevant: bool = True):
        """:func:`rank_atom_csr` over the batches' relevant (or owner) atoms."""
        if use_relevant:
            arrays = batch_arrays(batches)
            return rank_atom_csr(self, arrays.indptr, arrays.indices, arrays.rows)
        return rank_atom_csr(self, *csr_of_rows([b.owner_atoms for b in batches]))

    def imbalance(self, batches: Sequence[GridBatch]) -> float:
        """max/mean point-count ratio (1.0 = perfect balance).

        Delegates to :func:`repro.utils.balance.max_mean_imbalance`,
        the repo-wide imbalance definition.
        """
        try:
            return max_mean_imbalance(self.points_per_rank(batches))
        except ValueError:
            raise MappingError("assignment owns no grid points") from None


def _owned_slots(assignment: BatchAssignment, n_batches: int):
    """``(rank_ptr, batch_ids)`` with every id checked against *n_batches*.
    Pairs of (rank of slot, batch id), not a rank-of-batch scatter: an
    assignment need not be a partition."""
    slot_ptr, ids = assignment.rank_ptr, assignment.batch_ids
    if slot_ptr.shape[0] != assignment.n_ranks + 1:
        raise MappingError(
            f"{slot_ptr.shape[0] - 1} batch lists for {assignment.n_ranks} ranks"
        )
    bad = ids[(ids < 0) | (ids >= n_batches)]
    if bad.size:
        raise MappingError(f"batch id {bad[0]} is not one of {n_batches} batches")
    return slot_ptr, ids


def _distinct(key: np.ndarray) -> np.ndarray:
    """The sorted *key* without repeats (sort in place, then a neighbour mask)."""
    key.sort()
    distinct = np.ones(key.shape[0], dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    return key[distinct]


def rank_atom_csr(
    assignment: BatchAssignment,
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: Optional[np.ndarray] = None,
):
    """Distinct ``(rank, atom)`` pairs of *assignment* as CSR ``(rank_ptr, atoms)``:
    ``(indptr, indices)`` is a row -> atom CSR, batch ``b`` reads row ``rows[b]``
    (row ``b`` when *rows* is None); rank ``r``'s atoms, ascending, are
    ``atoms[rank_ptr[r]:rank_ptr[r + 1]]``.

    A rank's batches that share a row add nothing: the distinct ``(rank, row)``
    pairs are taken first, and only their rows are expanded into ``(rank, atom)``
    keys, sorted and deduplicated per slab.  Sort and a neighbour mask: numpy
    2.4's hash-based unique takes 1.2 s against 23 ms on 2 M all-distinct keys
    (EXPERIMENTS.md)."""
    n_ranks = assignment.n_ranks
    n_rows = indptr.shape[0] - 1
    slot_ptr, ids = _owned_slots(assignment, n_rows if rows is None else rows.shape[0])
    row = ids if rows is None else rows[ids]
    pair = np.repeat(np.arange(n_ranks, dtype=np.int64) * n_rows, np.diff(slot_ptr))
    pair = _distinct(pair + row)
    pair_rank, row = np.divmod(pair, max(n_rows, 1))
    pair_ptr = np.searchsorted(pair_rank, np.arange(n_ranks + 1))
    starts, lens = indptr[row], indptr[row + 1] - indptr[row]
    n_atoms = int(indices.max()) + 1 if indices.size else 1
    key_ptr = np.append(0, np.cumsum(lens))[pair_ptr]  # keys before each rank
    counts, parts = np.zeros(n_ranks, dtype=np.int64), [np.empty(0, dtype=np.int64)]
    # A slab: the whole ranks whose first key falls in one _SLAB_ELEMENTS window,
    # keyed ``local rank * n_atoms + atom`` in int32 whenever that fits.
    cuts = np.flatnonzero(np.diff(key_ptr[:-1] // _SLAB_ELEMENTS, prepend=-1))
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [n_ranks]):
        pairs = slice(pair_ptr[lo], pair_ptr[hi])
        dtype = np.int32 if (hi - lo + 1) * n_atoms < 2**31 else np.int64
        base = np.arange(hi - lo + 1, dtype=dtype) * dtype(n_atoms)
        key = np.repeat(base[:-1], np.diff(key_ptr[lo : hi + 1]))
        key += np.take(indices, ranges(starts[pairs], lens[pairs]))
        key = _distinct(key)
        counts[lo:hi] = np.diff(np.searchsorted(key, base))
        key -= np.repeat(base[:-1], counts[lo:hi])  # the atom ids
        parts.append(key)
    return np.append(0, np.cumsum(counts)), np.concatenate(parts)


def _validate(batches: Sequence[GridBatch], n_ranks: int) -> None:
    if n_ranks < 1:
        raise MappingError(f"need >= 1 rank, got {n_ranks}")
    if len(batches) < n_ranks:
        raise MappingError(f"{len(batches)} batches cannot feed {n_ranks} ranks")


def load_balancing_mapping(batches: Sequence[GridBatch], n_ranks: int) -> BatchAssignment:
    """Existing strategy: greedy least-loaded (by grid points).

    Batches are visited in construction order; ties broken by rank id —
    deterministic.  Construction order runs along space while the least-loaded
    rank cycles, so the batches of one rank end up scattered across the system.
    """
    _validate(batches, n_ranks)
    # Construction order, as FHI-aims' batch stream arrives atom by atom.
    rank_of = _least_loaded_ranks(batch_points(batches), n_ranks)
    order = np.argsort(rank_of, kind="stable")
    ptr = np.append(0, np.cumsum(np.bincount(rank_of, minlength=n_ranks)))
    return BatchAssignment("load_balancing", n_ranks, ptr, order)


def _least_loaded_ranks(points: np.ndarray, n_ranks: int) -> np.ndarray:
    """The rank each batch goes to when every batch in turn joins the rank with
    the least ``(load, rank id)``: a heap pop + push per batch, in rounds.

    A rank is the key ``load * n_ranks + rank``; ``keys`` holds them sorted.  A
    round takes the next batches while the keys below ``keys[0] + s * n_ranks``
    last — ``s`` the least nonzero size taken so far — and hands them the
    nonzero batches in key order.  That is exactly the heap's pick: a key that
    took one rose by at least ``s * n_ranks`` from at least ``keys[0]``, so it
    ends at or above that line, and every other key is already there.  A
    zero-size batch joins the rank next in line without moving it, as on the
    heap.  A round shorter than ``64 + n_ranks / 16`` batches costs more than
    the heap steps it saves, so it is followed by a stretch of heap steps
    (EXPERIMENTS.md, "Summary batches as arrays, measured").
    """
    n, total = points.shape[0], int(points.sum())
    if (total + 1) * n_ranks >= 2**62:
        raise MappingError(f"{total} points over {n_ranks} ranks overflow the int64 keys")
    keys = np.arange(n_ranks, dtype=np.int64)
    rank_of = np.empty(n, dtype=np.int64)
    b = 0
    while b < n:
        w = points[b : b + n_ranks]
        nonzero = w > 0
        line = keys[0] + np.minimum.accumulate(np.where(nonzero, w, w.max() + 1)) * n_ranks
        slot = np.cumsum(nonzero) - nonzero  # batch i joins keys[slot[i]]
        j = int(np.count_nonzero(slot < np.searchsorted(keys, line)))
        rank_of[b : b + j] = keys[slot[:j]] % n_ranks
        moved = int(slot[j - 1] + nonzero[j - 1])
        keys[:moved] += w[:j][nonzero[:j]] * n_ranks
        keys.sort(kind="stable")  # timsort: the untouched keys are one run
        b += j
        if j < 64 + n_ranks // 16:
            end = min(n, b + 1024 + 4 * n_ranks)
            rank_of[b:end], keys = _heap_steps(keys, points[b:end], n_ranks)
            b = end
    return rank_of


def _heap_steps(keys: np.ndarray, points: np.ndarray, n_ranks: int):
    """One heap pop + push per batch from the sorted *keys*: the batches' ranks
    and the keys after them, sorted."""
    heap = keys.tolist()  # sorted, so a heap
    taken: List[int] = []
    take, replace = taken.append, heapq.heapreplace
    for n_points in points.tolist():
        key = heap[0]
        take(key)
        replace(heap, key + n_points * n_ranks)
    ranks = np.array(taken, dtype=np.int64) % n_ranks
    return ranks, np.sort(np.array(heap, dtype=np.int64))


def locality_enhancing_mapping(batches: Sequence[GridBatch], n_ranks: int) -> BatchAssignment:
    """Algorithm 1: locality-enhancing recursive bisection.

    The paper's pseudo-code, one level of the recursion at a time over all
    segments: processes are halved (ceil left), batches are projected on the
    dimension where their centroids spread the largest range, sorted, and split
    at the pivot ``p`` with ``sum_{i<=p} points_i <= (total points) * |P_l|/|P|``
    — generalized from the paper's 1/2 so odd process counts stay balanced.
    """
    _validate(batches, n_ranks)
    arrays, n = batch_arrays(batches), len(batches)
    columns = np.ascontiguousarray(arrays.centroids.T)  # (3, n): a row per dimension
    at = np.arange(n, dtype=np.int64)
    order = at.copy()  # batch ids, segment after segment
    # Segment s is order[starts[s]:starts[s + 1]] and feeds ranks lo[s]..hi[s].
    starts, lo, hi = (np.array([v], dtype=np.int64) for v in (0, 0, n_ranks))
    while (hi - lo).max() > 1:
        procs = hi - lo
        split = procs > 1
        sizes = np.diff(np.append(starts, n))
        if np.any(sizes < procs):
            size, need = sizes[sizes < procs][0], procs[sizes < procs][0]
            raise MappingError(f"bisection ran out of batches ({size} for {need} ranks)")
        left = (procs + 1) // 2  # ceil(n/2), paper line 5
        seg = np.repeat(np.arange(starts.shape[0]), sizes)
        # Line 7: dimension of largest centroid spread, per segment.  np.take and
        # reduceat along the contiguous axis: centroids[order] is 4x slower.
        sub = np.take(columns, order, axis=1)
        spans = np.maximum.reduceat(sub, starts, axis=1) - np.minimum.reduceat(sub, starts, axis=1)
        dim = np.argmax(spans, axis=0)
        # Line 8: sort by projection within each segment.  lexsort is stable: ties
        # (one atom's fragments) and a finished segment's constant key keep their order.
        value = np.take(sub.ravel(), np.take(dim * n, seg) + at)
        value = np.where(np.take(split, seg), value, 0.0)
        order = np.take(order, np.lexsort((value, seg)))
        # Lines 9-11: point-count pivot, proportional to |P_l|.
        cum = np.cumsum(np.take(arrays.points, order))
        cum -= np.take(np.append(0, cum)[starts], seg)
        pivot = cum[starts + sizes - 1] * left / procs
        p = np.bincount(seg[cum <= np.take(pivot, seg)], minlength=starts.shape[0])
        # Both sides must receive at least as many batches as ranks.
        p = np.minimum(np.maximum(p, left), sizes - (procs - left))
        # Children in order: (start, lo, lo + left), (start + p, lo + left, hi).
        keep = np.stack((np.ones_like(split), split), axis=1).ravel()
        mid = np.where(split, lo + left, hi)
        starts = np.stack((starts, starts + p), axis=1).ravel()[keep]
        lo, hi = (np.stack(pair, axis=1).ravel()[keep] for pair in ((lo, mid), (mid, hi)))
    return BatchAssignment("locality_enhancing", n_ranks, np.append(starts, n), order)
