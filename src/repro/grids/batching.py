"""Grid-adapted cut-plane batching (Havu et al., JCP 228, 8367 (2009)).

All grid points of a structure are recursively split by axis-aligned
cut planes — each split along the dimension of largest spatial extent,
at the median — until batches hold at most ``target_points`` points.
These batches are the atoms of work the task-mapping strategies of
Section 3.1 distribute over MPI ranks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atoms.structure import Structure
from repro.errors import GridError
from repro.grids.atom_grid import IntegrationGrid
from repro.utils.neighbors import sphere_overlaps

#: Bounding radius of a summary batch: one atom's grid fragment envelope (Bohr).
SUMMARY_BATCH_RADIUS: float = 2.0


@dataclass(frozen=True)
class GridBatch:
    """A spatially compact set of grid points.

    Attributes
    ----------
    index:
        Batch id within its grid.
    point_indices:
        Indices into the flat grid arrays.
    centroid:
        Average coordinate of the member points — the batch "location"
        used by the mapping strategies (Alg. 1 line 7-8).
    radius:
        Max distance from centroid to a member point (bounding sphere).
    owner_atoms:
        Sorted atom ids owning at least one member point.
    relevant_atoms:
        Sorted atom ids whose basis functions can be nonzero somewhere
        in the batch (cutoff sphere intersects bounding sphere); filled
        by :func:`attach_relevant_atoms` when a basis reach is known.
    """

    index: int
    point_indices: np.ndarray
    centroid: np.ndarray
    radius: float
    owner_atoms: Tuple[int, ...]
    relevant_atoms: Tuple[int, ...] = field(default=())

    @property
    def n_points(self) -> int:
        return self.point_indices.shape[0]


class BatchArrays(NamedTuple):
    """What the mapping and the per-rank models read off ``n`` batches:
    ``batches[b].relevant_atoms`` is row ``rows[b]`` of the CSR ``(indptr,
    indices)``.  Batches may share a row: every summary batch of an atom
    reads that atom's; real batches each have their own (``rows[b] == b``)."""

    points: np.ndarray  # (n,) int64
    centroids: np.ndarray  # (n, 3)
    radii: np.ndarray  # (n,)
    rows: np.ndarray  # (n,) int64 CSR row of each batch
    indptr: np.ndarray  # (n_rows + 1,) int64
    indices: np.ndarray  # int64 atom ids


class BatchList(List[GridBatch]):
    """A batch list carrying the :class:`BatchArrays` it was built from: a
    memo :func:`batch_arrays` trusts only while the lengths still match."""

    def __init__(self, batches, arrays: BatchArrays) -> None:
        super().__init__(batches)
        self.arrays = arrays


class SummaryBatches(Sequence[GridBatch]):
    """Summary batches kept as their :class:`BatchArrays` (carried as
    ``.arrays``) plus each batch's atom: read-only, and a :class:`GridBatch`
    is built only for the batches that are indexed, sliced or iterated."""

    def __init__(self, arrays: BatchArrays, atom_of: np.ndarray) -> None:
        self.arrays = arrays
        self._atom_of = atom_of

    def __len__(self) -> int:
        return self._atom_of.shape[0]

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return [self._batch(j) for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"batch {i} of {len(self)}")
        return self._batch(i % len(self))

    def __iter__(self) -> Iterator[GridBatch]:
        return map(self._batch, range(len(self)))

    def _batch(self, i: int) -> GridBatch:
        points, centroids, radii, rows, indptr, indices = self.arrays
        row = rows[i]
        return GridBatch(
            index=i,
            point_indices=_no_indices(int(points[i])),
            centroid=centroids[i],
            radius=float(radii[i]),
            owner_atoms=(int(self._atom_of[i]),),
            relevant_atoms=tuple(indices[indptr[row] : indptr[row + 1]].tolist()),
        )


@lru_cache(maxsize=1024)
def _no_indices(n: int) -> np.ndarray:
    # The models read a summary batch's point count, never its indices: one
    # read-only zero-stride buffer per distinct count, no bytes behind it.
    return np.broadcast_to(np.zeros((), dtype=np.int64), (n,))


def fragments_per_atom(points_per_atom: np.ndarray, target_points) -> np.ndarray:
    """Summary batches per atom (int64 point counts in):
    ``ceil(points / target_points)``, at least one."""
    try:
        target = operator.index(target_points)
    except TypeError:
        target = 0
    if target < 1:
        raise GridError(f"target_points must be >= 1 and whole, got {target_points!r}")
    return np.maximum(1, -(-points_per_atom // target))


def summary_overlaps(coords: np.ndarray, cutoffs) -> Tuple[np.ndarray, np.ndarray]:
    """CSR of the atoms whose cutoff sphere meets each atom's summary-batch
    envelope: every summary batch of atom ``a`` reads row ``a``."""
    return sphere_overlaps(coords, SUMMARY_BATCH_RADIUS, coords, cutoffs)


def csr_of_rows(rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of a list of integer tuples."""
    indptr = np.append(0, np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows))))
    return indptr, np.fromiter(chain.from_iterable(rows), np.int64, int(indptr[-1]))


def _carried(batches: Sequence[GridBatch]) -> Optional[BatchArrays]:
    arrays = getattr(batches, "arrays", None)
    return arrays if arrays is not None and len(arrays.points) == len(batches) else None


def batch_points(batches: Sequence[GridBatch]) -> np.ndarray:
    """Grid points per batch; reads nothing of a batch but ``n_points``."""
    carried = _carried(batches)
    if carried is not None:
        return carried.points
    return np.fromiter((b.n_points for b in batches), np.int64, len(batches))


def batch_arrays(batches: Sequence[GridBatch]) -> BatchArrays:
    """The :class:`BatchArrays` of *batches*: the carried copy when the list
    still has its length, one pass over the batches otherwise."""
    return _carried(batches) or BatchArrays(
        batch_points(batches),
        np.array([b.centroid for b in batches], dtype=float).reshape(-1, 3),
        np.array([b.radius for b in batches], dtype=float),
        np.arange(len(batches), dtype=np.int64),
        *csr_of_rows([b.relevant_atoms for b in batches]),
    )


def cut_plane_partition(
    points: np.ndarray, target_points: int
) -> List[np.ndarray]:
    """Split a point cloud into index groups of <= target_points each.

    Iterative median bisection along the widest dimension; returns the
    groups in deterministic spatial order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise GridError(f"points must be (n, 3), got {points.shape}")
    if target_points < 1:
        raise GridError(f"target_points must be >= 1, got {target_points}")

    result: List[np.ndarray] = []
    stack: List[np.ndarray] = [np.arange(points.shape[0], dtype=np.int64)]
    while stack:
        idx = stack.pop()
        if idx.shape[0] <= target_points:
            result.append(idx)
            continue
        sub = points[idx]
        spans = sub.max(axis=0) - sub.min(axis=0)
        dim = int(np.argmax(spans))
        order = np.argsort(sub[:, dim], kind="stable")
        half = idx.shape[0] // 2
        # Push right half first so the left half is processed next
        # (keeps output ordered along the cut direction).
        stack.append(idx[order[half:]])
        stack.append(idx[order[:half]])
    return result


def build_batches(
    grid: IntegrationGrid,
    target_points: Optional[int] = None,
) -> List[GridBatch]:
    """Partition a grid into :class:`GridBatch` objects."""
    if target_points is None:
        target_points = grid.settings.batch_target_points
    groups = cut_plane_partition(grid.points, target_points)
    batches: List[GridBatch] = []
    for i, idx in enumerate(groups):
        pts = grid.points[idx]
        centroid = pts.mean(axis=0)
        radius = float(np.linalg.norm(pts - centroid, axis=1).max()) if idx.size else 0.0
        owners = tuple(sorted(set(int(a) for a in grid.atom_index[idx])))
        batches.append(
            GridBatch(
                index=i,
                point_indices=idx,
                centroid=centroid,
                radius=radius,
                owner_atoms=owners,
            )
        )
    return batches


def attach_relevant_atoms(
    batches: Sequence[GridBatch],
    structure: Structure,
    atom_cutoffs: np.ndarray,
) -> List[GridBatch]:
    """Return new batches annotated with their relevant-atom sets.

    An atom is *relevant* to a batch when its farthest-reaching basis
    function (radius ``atom_cutoffs[a]``) can be nonzero inside the
    batch's bounding sphere.  The per-rank union of these sets is what
    sizes the local Hamiltonian in the memory model of Fig. 9(a).
    """
    atom_cutoffs = np.asarray(atom_cutoffs, dtype=float)
    if atom_cutoffs.shape[0] != structure.n_atoms:
        raise GridError(
            f"{atom_cutoffs.shape[0]} cutoffs for {structure.n_atoms} atoms"
        )
    base = batch_arrays(batches)
    indptr, indices = sphere_overlaps(
        base.centroids, base.radii, structure.coords, atom_cutoffs
    )
    ends = indptr.tolist()
    # The constructor, not dataclasses.replace (1.4 vs 10 us per batch), and a
    # row at a time: the whole index list as Python objects is 33 MB at 2 M.
    attached = (
        GridBatch(
            index=b.index,
            point_indices=b.point_indices,
            centroid=b.centroid,
            radius=b.radius,
            owner_atoms=b.owner_atoms,
            relevant_atoms=tuple(indices[lo:hi].tolist()),
        )
        for b, lo, hi in zip(batches, ends, ends[1:])
    )
    own = np.arange(base.points.shape[0], dtype=np.int64)  # a row per batch
    return BatchList(attached, base._replace(rows=own, indptr=indptr, indices=indices))
