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
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.grids.batching import GridBatch, batch_arrays, batch_points, csr_of_rows
from repro.utils.balance import max_mean_imbalance
from repro.utils.neighbors import ranges

#: Window of ``(rank, atom)`` keys :func:`rank_atom_csr` sorts at once.  A
#: constant, not a setting: a slab is whole ranks, so its distinct pairs are its
#: own and results are bit-for-bit independent of it; it only bounds the
#: key-length temporaries.  2^14 / 2^18 / 2^22 on the 2 069 374 keys of a scattered
#: 2 048-rank assignment (10 004 atoms): 61 / 56 / 62 ms, peak RSS +34 / +39 / +63 MB.
_SLAB_ELEMENTS: int = 1 << 18


def segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Integer sums of ``values[ptr[i]:ptr[i + 1]]``; 0 where ``reduceat`` errs: empty."""
    return np.diff(np.append(0, np.cumsum(values, dtype=np.int64))[ptr])


@dataclass(frozen=True)
class BatchAssignment:
    """Result of a mapping: rank -> batch ids, plus convenience metrics."""

    strategy: str
    n_ranks: int
    batches_of_rank: Tuple[Tuple[int, ...], ...]

    def points_per_rank(self, batches: Sequence[GridBatch]) -> np.ndarray:
        """Grid points owned by each rank."""
        slot_ptr, ids = _owned_slots(self, len(batches))
        return segment_sums(batch_points(batches)[ids], slot_ptr)

    def rank_atoms(self, batches: Sequence[GridBatch], use_relevant: bool = True):
        """:func:`rank_atom_csr` over the batches' relevant (or owner) atoms."""
        if use_relevant:
            return rank_atom_csr(self, *batch_arrays(batches)[3:])
        return rank_atom_csr(self, *csr_of_rows([b.owner_atoms for b in batches]))

    def atoms_per_rank(
        self, batches: Sequence[GridBatch], use_relevant: bool = True
    ) -> List[np.ndarray]:
        """Union of (relevant or owner) atom ids per rank (sorted arrays)."""
        rank_ptr, atoms = self.rank_atoms(batches, use_relevant)
        return np.split(atoms, rank_ptr[1:-1])

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
    """``(slot_ptr, ids)``: rank ``r`` owns ``ids[slot_ptr[r]:slot_ptr[r + 1]]``,
    every id checked against *n_batches*.  Pairs of (rank of slot, batch id),
    not a rank-of-batch scatter: an assignment need not be a partition."""
    owned = assignment.batches_of_rank
    if len(owned) != assignment.n_ranks:
        raise MappingError(f"{len(owned)} batch lists for {assignment.n_ranks} ranks")
    slot_ptr, ids = csr_of_rows(owned)
    bad = ids[(ids < 0) | (ids >= n_batches)]
    if bad.size:
        raise MappingError(f"batch id {bad[0]} is not one of {n_batches} batches")
    return slot_ptr, ids


def rank_atom_csr(assignment: BatchAssignment, indptr: np.ndarray, indices: np.ndarray):
    """Distinct ``(rank, atom)`` pairs of *assignment* as CSR ``(rank_ptr, atoms)``:
    ``(indptr, indices)`` is a batch -> atom CSR; rank ``r``'s atoms, ascending,
    are ``atoms[rank_ptr[r]:rank_ptr[r + 1]]``.  Sort and a neighbour mask: numpy
    2.4's hash-based unique takes 1.2 s against 23 ms on the 2 M all-distinct
    keys of a scattered assignment (EXPERIMENTS.md)."""
    n_ranks = assignment.n_ranks
    slot_ptr, ids = _owned_slots(assignment, indptr.shape[0] - 1)
    starts, lens = indptr[ids], indptr[ids + 1] - indptr[ids]
    n_atoms = int(indices.max()) + 1 if indices.size else 1
    key_ptr = np.append(0, np.cumsum(lens))[slot_ptr]  # keys before each rank
    counts, parts = np.zeros(n_ranks, dtype=np.int64), [np.empty(0, dtype=np.int64)]
    # A slab: the whole ranks whose first key falls in one _SLAB_ELEMENTS window.
    cuts = np.flatnonzero(np.diff(key_ptr[:-1] // _SLAB_ELEMENTS, prepend=-1))
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [n_ranks]):
        slots = slice(slot_ptr[lo], slot_ptr[hi])
        key = np.repeat(np.arange(lo, hi) * n_atoms, np.diff(key_ptr[lo : hi + 1]))
        key += indices[ranges(starts[slots], lens[slots])]
        key.sort()
        distinct = np.ones(key.shape[0], dtype=bool)
        distinct[1:] = key[1:] != key[:-1]
        key = key[distinct]
        counts[lo:hi] = np.diff(np.searchsorted(key, np.arange(lo, hi + 1) * n_atoms))
        parts.append(key % n_atoms)
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
    order = np.argsort(rank_of, kind="stable").tolist()
    ptr = np.append(0, np.cumsum(np.bincount(rank_of, minlength=n_ranks))).tolist()
    owned = tuple(tuple(order[a:z]) for a, z in zip(ptr, ptr[1:]))
    return BatchAssignment("load_balancing", n_ranks, owned)


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
    order = np.arange(n, dtype=np.int64)  # batch ids, segment after segment
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
        # Line 7: dimension of largest centroid spread, per segment.
        sub = arrays.centroids[order]
        spans = np.maximum.reduceat(sub, starts) - np.minimum.reduceat(sub, starts)
        dim = np.argmax(spans, axis=1)
        # Line 8: sort by projection within each segment.  lexsort is stable: ties
        # (one atom's fragments) and a finished segment's constant key keep their order.
        value = np.where(split[seg], sub[np.arange(n), dim[seg]], 0.0)
        order = order[np.lexsort((value, seg))]
        # Lines 9-11: point-count pivot, proportional to |P_l|.
        cum = np.cumsum(arrays.points[order])
        cum -= np.append(0, cum)[starts][seg]
        pivot = cum[starts + sizes - 1] * left / procs
        p = np.bincount(seg[cum <= pivot[seg]], minlength=starts.shape[0])
        # Both sides must receive at least as many batches as ranks.
        p = np.minimum(np.maximum(p, left), sizes - (procs - left))
        # Children in order: (start, lo, lo + left), (start + p, lo + left, hi).
        keep = np.stack((np.ones_like(split), split), axis=1).ravel()
        mid = np.where(split, lo + left, hi)
        starts = np.stack((starts, starts + p), axis=1).ravel()[keep]
        lo, hi = (np.stack(pair, axis=1).ravel()[keep] for pair in ((lo, mid), (mid, hi)))
    order, ptr = order.tolist(), np.append(starts, n).tolist()
    owned = tuple(tuple(order[a:z]) for a, z in zip(ptr, ptr[1:]))
    return BatchAssignment("locality_enhancing", n_ranks, owned)
