"""Property-based tests of Algorithm 1 on random 3-D point clouds.

The chain tests in test_mapping.py cover the paper's geometry; these
verify the invariants hold for arbitrary (globular, anisotropic,
clustered) batch clouds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.mapping.strategies as strategies
from repro.errors import MappingError
from repro.grids.batching import GridBatch, csr_of_rows
from repro.mapping.strategies import (
    BatchAssignment,
    load_balancing_mapping,
    locality_enhancing_mapping,
    rank_atom_csr,
)
from tests.setup_oracles import (
    atoms_per_rank_oracle,
    load_balancing_oracle,
    locality_mapping_oracle,
    rank_atom_csr_oracle,
    spline_counts_oracle,
    split_rank_atoms,
)


def _random_batches(rng: np.random.Generator, n: int, clustered: bool) -> list:
    if clustered:
        n_clusters = max(2, n // 20)
        centers = rng.uniform(-50, 50, size=(n_clusters, 3))
        which = rng.integers(0, n_clusters, size=n)
        pos = centers[which] + rng.normal(scale=2.0, size=(n, 3))
    else:
        pos = rng.uniform(-50, 50, size=(n, 3))
    points = rng.integers(50, 300, size=n)
    return [
        GridBatch(
            index=i,
            point_indices=np.empty(int(points[i]), dtype=np.int64),
            centroid=pos[i],
            radius=2.0,
            owner_atoms=(i % max(1, n // 4),),
            relevant_atoms=(i % max(1, n // 4),),
        )
        for i in range(n)
    ]


class TestAlgorithm1Properties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(16, 200),
        ranks=st.sampled_from([2, 3, 4, 7, 8, 16]),
        clustered=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_and_balance(self, seed, n, ranks, clustered):
        rng = np.random.default_rng(seed)
        batches = _random_batches(rng, n, clustered)
        a = locality_enhancing_mapping(batches, ranks)
        # Exact partition.
        owned = sorted(b for r in a.batches_of_rank for b in r)
        assert owned == list(range(n))
        # Every rank owns at least one batch.
        assert all(len(r) >= 1 for r in a.batches_of_rank)
        # Point balance within a factor of ~3 even adversarially
        # (pivot splits by points with batch granularity).
        pts = a.points_per_rank(batches)
        assert pts.max() <= 3.5 * max(pts.mean(), 1.0)

    @given(seed=st.integers(0, 10_000), ranks=st.sampled_from([4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_locality_beats_scatter_spatially(self, seed, ranks):
        """Per-rank centroid spread: Algorithm 1 << least-loaded."""
        rng = np.random.default_rng(seed)
        batches = _random_batches(rng, 120, clustered=False)

        def mean_spread(assignment):
            spreads = []
            for owned in assignment.batches_of_rank:
                pos = np.array([batches[b].centroid for b in owned])
                spreads.append(np.linalg.norm(pos - pos.mean(0), axis=1).mean())
            return float(np.mean(spreads))

        s_lo = mean_spread(locality_enhancing_mapping(batches, ranks))
        s_ex = mean_spread(load_balancing_mapping(batches, ranks))
        assert s_lo < s_ex

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        batches = _random_batches(rng, 64, clustered=True)
        a1 = locality_enhancing_mapping(batches, 8)
        a2 = locality_enhancing_mapping(batches, 8)
        assert a1.batches_of_rank == a2.batches_of_rank


def _tied_batches(rng: np.random.Generator, n: int, n_atoms: int) -> list:
    """Batches built to tie: centroids on a coarse lattice (exact duplicates,
    equal spans), point counts with zeros and repeats."""
    lattice = rng.integers(0, 3, size=(n, 3)).astype(float) * rng.choice([0.0, 1.0, 2.5], 3)
    pos = np.where(rng.random((n, 1)) < 0.7, lattice, rng.uniform(-3, 3, (n, 3)))
    points = rng.choice([0, 0, 1, 5, 5, 5, 100], size=n)
    rows = [
        tuple(sorted(rng.choice(n_atoms, size=rng.integers(0, 5), replace=False).tolist()))
        for _ in range(n)
    ]
    return [
        GridBatch(
            index=i,
            point_indices=np.zeros(int(points[i]), dtype=np.int64),
            centroid=pos[i],
            radius=1.0,
            owner_atoms=(int(rng.integers(n_atoms)),),
            relevant_atoms=rows[i],
        )
        for i in range(n)
    ]


def _loose_assignment(rng: np.random.Generator, n: int, n_ranks: int) -> BatchAssignment:
    """Not a partition: a batch may be unowned or sit under two ranks, and
    the last rank owns nothing."""
    owned = [[] for _ in range(n_ranks)]
    for b in range(n):
        for r in rng.choice(max(1, n_ranks - 1), size=rng.integers(0, 3)).tolist():
            owned[r].append(b)
    return BatchAssignment("loose", n_ranks, *csr_of_rows(owned))


class TestArrayProgramsAgainstOracles:
    """PR 22's array programs equal the loops they replaced, with ``==``."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60), pick=st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_both_mappings(self, seed, n, pick):
        rng = np.random.default_rng(seed)
        batches = _tied_batches(rng, n, n_atoms=9)
        n_ranks = min(n, [1, 2, 3, 7, n][pick])
        got = locality_enhancing_mapping(batches, n_ranks)
        assert got.batches_of_rank == locality_mapping_oracle(batches, n_ranks)
        assert {type(b) for owned in got.batches_of_rank for b in owned} <= {int}
        assert load_balancing_mapping(
            batches, n_ranks
        ).batches_of_rank == load_balancing_oracle(batches, n_ranks)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40), n_ranks=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_per_rank_reductions(self, seed, n, n_ranks):
        from repro.atoms import polyethylene
        from repro.mapping import HamiltonianMemoryModel

        rng = np.random.default_rng(seed)
        batches = _tied_batches(rng, n, n_atoms=8)
        a = _loose_assignment(rng, n, n_ranks)
        assert a.points_per_rank(batches).tolist() == [
            sum(batches[b].n_points for b in owned) for owned in a.batches_of_rank
        ]
        model = HamiltonianMemoryModel(polyethylene(1))  # 8 atoms
        indptr, indices = csr_of_rows([b.relevant_atoms for b in batches])
        results = []
        for slab in (1, 7, strategies._SLAB_ELEMENTS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(strategies, "_SLAB_ELEMENTS", slab)
                for use_relevant in (True, False):
                    got = split_rank_atoms(a, batches, use_relevant)
                    want = atoms_per_rank_oracle(a, batches, use_relevant)
                    assert len(got) == n_ranks
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and np.array_equal(g, w)
                dense = model.dense_local_bytes(a, batches)
                rank_ptr, atoms = rank_atom_csr(a, indptr, indices)
            assert dense.dtype == np.int64 and dense.tolist() == [
                8 * int(model.basis_counts[atoms_r].sum()) ** 2
                # Owner atoms when the first batch never had relevance attached.
                for atoms_r in atoms_per_rank_oracle(a, batches, bool(batches[0].relevant_atoms))
            ]
            assert np.array_equal(np.diff(rank_ptr), spline_counts_oracle(a, indptr, indices))
            results.append((rank_ptr.tolist(), atoms.tolist()))
        assert results[0] == results[1] == results[2]

    def test_ids_that_are_not_ids(self):
        from repro.atoms import polyethylene
        from repro.mapping import HamiltonianMemoryModel, spline_counts_per_rank

        structure = polyethylene(1)
        batches = _tied_batches(np.random.default_rng(0), 4, n_atoms=8)
        model = HamiltonianMemoryModel(structure)
        for owned, message in (
            (((0, 4), (1,)), "batch id 4 is not one of 4 batches"),
            (((0,), (-1,)), "batch id -1 is not one of 4 batches"),
            (((0, 1, 2),), "1 batch lists for 2 ranks"),
        ):
            a = BatchAssignment("loose", 2, *csr_of_rows(owned))
            for call in (
                lambda: a.points_per_rank(batches),
                lambda: a.rank_atoms(batches),
                lambda: a.rank_atoms(batches, use_relevant=False),
                lambda: model.dense_local_bytes(a, batches),
                lambda: spline_counts_per_rank(a, batches, structure),
            ):
                with pytest.raises(MappingError, match=message):
                    call()

    def test_too_few_batches(self):
        batches = _tied_batches(np.random.default_rng(1), 3, n_atoms=8)
        for fn in (locality_enhancing_mapping, load_balancing_mapping):
            with pytest.raises(MappingError, match="3 batches cannot feed 4 ranks"):
                fn(batches, 4)
            with pytest.raises(MappingError, match="need >= 1 rank, got 0"):
                fn(batches, 0)


def _row_table(rng: np.random.Generator, n_rows: int, n_atoms: int):
    """A row -> atom CSR of *n_rows* ascending rows, some of them empty."""
    return csr_of_rows(
        [np.sort(rng.choice(n_atoms, size=rng.integers(0, 6), replace=False)).tolist()
         for _ in range(n_rows)]
    )


class TestRankAtomCsr:
    """:func:`rank_atom_csr` over rows that batches share, held to one
    ``np.unique`` per rank of its batches' rows expanded in full: ranks that
    own nothing, ids listed twice, batches nobody owns; every slab width; keys
    in int32 and, with atom ids past 2^30, in int64."""

    @given(
        seed=st.integers(0, 10_000),
        n_batches=st.integers(1, 40),
        n_rows=st.integers(1, 8),
        n_ranks=st.integers(1, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_expanded_oracle(self, seed, n_batches, n_rows, n_ranks):
        rng = np.random.default_rng(seed)
        indptr, indices = _row_table(rng, n_rows, n_atoms=9)
        rows = rng.integers(0, n_rows, size=n_batches)  # rows repeat
        owned = [
            rng.choice(n_batches, size=rng.integers(0, 6)).tolist()  # duplicates, gaps
            for _ in range(n_ranks)
        ]
        a = BatchAssignment("loose", n_ranks, *csr_of_rows(owned))
        for offset in (0, 2**30):  # int32 keys; ids too large for them
            shifted = indices + offset
            want = rank_atom_csr_oracle(owned, rows, indptr, shifted)
            expanded = csr_of_rows(
                [shifted[indptr[r] : indptr[r + 1]].tolist() for r in rows.tolist()]
            )
            for slab in (1, 7, strategies._SLAB_ELEMENTS):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(strategies, "_SLAB_ELEMENTS", slab)
                    for got in (
                        rank_atom_csr(a, indptr, shifted, rows),
                        rank_atom_csr(a, *expanded),
                    ):
                        assert [g.dtype for g in got] == [np.int64, np.int64]
                        assert got[0].tolist() == want[0].tolist()
                        assert got[1].tolist() == want[1].tolist()

    def test_ids_that_are_not_ids(self):
        rng = np.random.default_rng(3)
        indptr, indices = _row_table(rng, 3, n_atoms=9)
        rows = np.array([2, 0, 2, 1, 0])
        for owned, message in (
            (((0, 5), (1,)), "batch id 5 is not one of 5 batches"),
            (((0,), (-1,)), "batch id -1 is not one of 5 batches"),
            (((0, 1, 2),), "1 batch lists for 2 ranks"),
        ):
            a = BatchAssignment("loose", 2, *csr_of_rows(owned))
            with pytest.raises(MappingError, match=message):
                rank_atom_csr(a, indptr, indices, rows)


class TestModelInvariants:
    """Cost-model sanity that must hold for any calibration."""

    def test_allreduce_cost_monotone_in_everything(self):
        from repro.runtime import CommCostModel, HPC1_SUNWAY, HPC2_AMD

        for machine in (HPC1_SUNWAY, HPC2_AMD):
            cost = CommCostModel(machine)
            assert cost.allreduce(1024, 2**20) > cost.allreduce(1024, 2**10)
            assert cost.allreduce(4096, 2**20) > cost.allreduce(256, 2**20)
            assert cost.allreduce(1, 2**20) == 0.0

    def test_device_estimate_additive_in_items(self):
        from repro.ocl import Device, Kernel, NDRange
        from repro.runtime import HPC2_AMD

        dev = Device(HPC2_AMD.accelerator)
        k = Kernel("k", flops_per_item=1e4, bytes_read_per_item=32)
        t1 = dev.estimate(k, NDRange(100, 64))
        t2 = dev.estimate(k, NDRange(200, 64))
        # Compute+stream double; launch overhead does not.
        assert t2.compute_time == pytest.approx(2 * t1.compute_time)
        assert t2.stream_time == pytest.approx(2 * t1.stream_time)
        assert t2.launch_overhead == t1.launch_overhead

    def test_dense_local_crossover(self):
        """Dense-local memory shrinks with ranks and beats the replicated
        CSR once ranks are numerous — at very low rank counts a rank's
        local block can legitimately exceed the sparse global matrix
        (which is exactly why the paper needs many ranks + locality)."""
        from repro.atoms import polyethylene
        from repro.config import get_settings
        from repro.core.workload import build_workload, synthetic_batches
        from repro.mapping import HamiltonianMemoryModel

        structure = polyethylene(60)
        workload = build_workload(structure, get_settings("light"))
        batches = synthetic_batches(workload)
        model = HamiltonianMemoryModel(structure)
        csr = model.global_sparse_csr_bytes()
        maxima = []
        for ranks in (2, 5, 13):
            a = locality_enhancing_mapping(batches, ranks)
            maxima.append(int(model.dense_local_bytes(a, batches).max()))
        assert maxima[0] > maxima[1] > maxima[2]  # shrinks with ranks
        assert maxima[-1] < csr / 5  # clear win once ranks are plentiful
