"""Task-mapping strategies (Alg. 1), memory model and spline counts."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import hydrogen_molecule, polyethylene, rbd_like_protein, water
from repro.config import get_settings
from repro.core.workload import build_workload, synthetic_batches
from repro.errors import MappingError
from repro.grids import attach_relevant_atoms, build_batches, build_grid
from repro.grids.batching import BatchArrays, SummaryBatches
from repro.mapping import (
    HamiltonianMemoryModel,
    atom_basis_counts,
    atom_cutoffs_light,
    load_balancing_mapping,
    locality_enhancing_mapping,
    spline_counts_per_rank,
)
from repro.utils.neighbors import sphere_overlaps
from tests.setup_oracles import (
    atoms_per_rank_oracle,
    load_balancing_oracle,
    locality_mapping_oracle,
    rows_as_read,
    spline_counts_oracle,
    split_rank_atoms,
    synthetic_batches_oracle,
)


@pytest.fixture(scope="module")
def chain_batches():
    """Synthetic batches for a 602-atom polyethylene chain."""
    structure = polyethylene(100)
    workload = build_workload(structure, get_settings("light"))
    return structure, synthetic_batches(workload)


class TestStrategies:
    @pytest.mark.parametrize("n_ranks", [1, 2, 7, 16, 64])
    def test_both_strategies_partition_all_batches(self, chain_batches, n_ranks):
        _, batches = chain_batches
        for fn in (load_balancing_mapping, locality_enhancing_mapping):
            a = fn(batches, n_ranks)
            owned = [b for r in a.batches_of_rank for b in r]
            assert sorted(owned) == list(range(len(batches)))
            assert a.n_ranks == n_ranks

    @given(n_ranks=st.integers(1, 32))
    @settings(max_examples=15, deadline=None)
    def test_partition_property(self, chain_batches, n_ranks):
        _, batches = chain_batches
        a = locality_enhancing_mapping(batches, n_ranks)
        owned = sorted(b for r in a.batches_of_rank for b in r)
        assert owned == list(range(len(batches)))

    def test_load_balancing_is_balanced(self, chain_batches):
        _, batches = chain_batches
        a = load_balancing_mapping(batches, 16)
        assert a.imbalance(batches) < 1.1

    def test_locality_is_balanced(self, chain_batches):
        _, batches = chain_batches
        a = locality_enhancing_mapping(batches, 16)
        assert a.imbalance(batches) < 1.25

    def test_locality_reduces_atoms_per_rank(self, chain_batches):
        structure, batches = chain_batches
        a_ex = load_balancing_mapping(batches, 16)
        a_lo = locality_enhancing_mapping(batches, 16)
        ex_atoms = np.mean([len(s) for s in split_rank_atoms(a_ex, batches)])
        lo_atoms = np.mean([len(s) for s in split_rank_atoms(a_lo, batches)])
        assert lo_atoms < 0.5 * ex_atoms

    def test_locality_ranks_are_contiguous_along_chain(self, chain_batches):
        """Each rank's batch centroids should span a short chain segment."""
        structure, batches = chain_batches
        a = locality_enhancing_mapping(batches, 8)
        chain_length = structure.coords[:, 0].max() - structure.coords[:, 0].min()
        for owned in a.batches_of_rank:
            xs = [batches[b].centroid[0] for b in owned]
            assert max(xs) - min(xs) < 0.35 * chain_length

    @pytest.mark.parametrize("n_ranks", [7, 64, 1024])
    def test_equal_the_loops_on_real_geometry(self, chain_batches, n_ranks):
        # The chain (1-D, ~8 fragments tied at every atom) and the protein (3-D).
        protein = rbd_like_protein()
        cases = [chain_batches, (protein, synthetic_batches(build_workload(protein), 10**9))]
        for structure, batches in cases:
            plain = list(batches)  # no carried arrays: the derived path
            lo = locality_enhancing_mapping(batches, n_ranks)
            ex = load_balancing_mapping(batches, n_ranks)
            assert lo.batches_of_rank == locality_mapping_oracle(plain, n_ranks)
            assert lo == locality_enhancing_mapping(plain, n_ranks)
            assert ex.batches_of_rank == load_balancing_oracle(plain, n_ranks)
            indptr, indices = sphere_overlaps(
                [b.centroid for b in batches], 2.0, structure.coords, 10.0
            )
            for a in (lo, ex):
                got, want = split_rank_atoms(a, batches), atoms_per_rank_oracle(a, plain)
                assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
                assert np.array_equal(
                    spline_counts_per_rank(a, batches, structure),
                    spline_counts_oracle(a, indptr, indices),
                )

    def test_more_ranks_than_batches_rejected(self, chain_batches):
        _, batches = chain_batches
        with pytest.raises(MappingError):
            locality_enhancing_mapping(batches, len(batches) + 1)
        with pytest.raises(MappingError):
            load_balancing_mapping(batches, 0)


class TestMemoryModel:
    def test_per_atom_tables(self):
        w = water()
        cut = atom_cutoffs_light(w)
        counts = atom_basis_counts(w)
        assert cut.shape == (3,) and np.all(cut > 0)
        assert counts.tolist() == [11, 5, 5]

    def test_global_csr_constant_across_strategies(self, chain_batches):
        structure, batches = chain_batches
        model = HamiltonianMemoryModel(structure)
        a_ex = load_balancing_mapping(batches, 8)
        per_rank = model.per_rank_bytes(a_ex, batches)
        assert np.all(per_rank == per_rank[0])
        assert per_rank[0] == model.global_sparse_csr_bytes()

    def test_locality_memory_much_smaller_and_scales_down(self, chain_batches):
        structure, batches = chain_batches
        model = HamiltonianMemoryModel(structure)
        csr = model.global_sparse_csr_bytes()
        prev = None
        for p in (4, 8, 16):
            a = locality_enhancing_mapping(batches, p)
            dense = model.per_rank_bytes(a, batches)
            assert dense.mean() < csr
            if prev is not None:
                assert dense.mean() < prev
            prev = dense.mean()

    def test_nnz_at_least_diagonal_blocks(self):
        w = water()
        model = HamiltonianMemoryModel(w)
        diag = sum(int(c) ** 2 for c in atom_basis_counts(w))
        assert model.global_sparse_nnz() >= diag

    # Recorded at the parent of PR 21 (253d9c2, Python pair list).
    @pytest.mark.parametrize(
        "structure, nnz",
        [
            (hydrogen_molecule(), 100),
            (water(), 441),
            (polyethylene(4), 31214),
            (polyethylene(100), 1301294),
        ],
        ids=["h2", "water", "pe4", "chain602"],
    )
    def test_nnz_equals_the_parents(self, structure, nnz):
        assert HamiltonianMemoryModel(structure).global_sparse_nnz() == nnz

    def test_mismatched_cutoffs_rejected(self):
        model = HamiltonianMemoryModel(water(), cutoffs=np.ones(2))
        with pytest.raises(MappingError, match="2 cutoffs for 3 atoms"):
            model.global_sparse_nnz()

    def test_dense_local_formula(self, chain_batches):
        structure, batches = chain_batches
        model = HamiltonianMemoryModel(structure)
        a = locality_enhancing_mapping(batches, 4)
        dense = model.dense_local_bytes(a, batches)
        atoms = split_rank_atoms(a, batches)
        counts = atom_basis_counts(structure)
        for r in range(4):
            n_loc = int(counts[np.asarray(list(atoms[r]), dtype=int)].sum())
            assert dense[r] == 8 * n_loc * n_loc


class TestSplineModel:
    def test_locality_reduces_spline_counts(self, chain_batches):
        structure, batches = chain_batches
        a_ex = load_balancing_mapping(batches, 16)
        a_lo = locality_enhancing_mapping(batches, 16)
        sp_ex = spline_counts_per_rank(a_ex, batches, structure)
        sp_lo = spline_counts_per_rank(a_lo, batches, structure)
        assert sp_lo.mean() < 0.5 * sp_ex.mean()

    # Recorded at the parent of PR 21 (253d9c2, chunked all-pairs loop):
    # locality mapping of the summary batches over min(16, batches) ranks;
    # under load balancing every rank touched every atom.
    @pytest.mark.parametrize(
        "structure, locality",
        [
            (hydrogen_molecule(), [2] * 12),
            (water(), [3] * 16),
            (polyethylene(4),
             [17, 17, 20, 20, 23, 23, 26, 26, 26, 26, 23, 23, 19, 20, 17, 17]),
            (polyethylene(100),
             [53, 65, 67, 65, 67, 65, 67, 65, 65, 67, 65, 67, 65, 67, 65, 52]),
        ],
        ids=["h2", "water", "pe4", "chain602"],
    )
    def test_counts_equal_the_parents(self, structure, locality):
        batches = synthetic_batches(build_workload(structure))
        ranks = len(locality)
        a_lo = locality_enhancing_mapping(batches, ranks)
        a_ex = load_balancing_mapping(batches, ranks)
        assert spline_counts_per_rank(a_lo, batches, structure).tolist() == locality
        assert np.all(
            spline_counts_per_rank(a_ex, batches, structure) == structure.n_atoms
        )

    def test_counts_bounded_by_atom_total(self, chain_batches):
        structure, batches = chain_batches
        a = load_balancing_mapping(batches, 4)
        sp = spline_counts_per_rank(a, batches, structure)
        assert np.all(sp <= structure.n_atoms)
        assert np.all(sp >= 1)


def _sized(points) -> SummaryBatches:
    """Batches of the given point counts, at the origin, with no atoms."""
    n = len(points)
    arrays = BatchArrays(
        np.asarray(points, dtype=np.int64),
        np.zeros((n, 3)),
        np.zeros(n),
        np.arange(n),
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    return SummaryBatches(arrays, np.zeros(n, dtype=np.int64))


#: The greedy mapping's inputs: even rounds, zero-size batches (which join a
#: rank without moving it), one tiny batch, and the sizes that make rounds short.
_SIZES = {
    "equal": lambda rng, n: np.full(n, 300),
    "zeros": lambda rng, n: np.where(np.arange(n) % 7 == 3, 0, rng.integers(1, 401, n)),
    "one_point": lambda rng, n: np.where(np.arange(n) == n // 2, 1, 300),
    "random": lambda rng, n: rng.integers(1, 401, n),
    "decreasing": lambda rng, n: np.sort(rng.integers(1, 401, n))[::-1],
}


@lru_cache(maxsize=None)
def _size_case(kind: str):
    batches = _sized(_SIZES[kind](np.random.default_rng(7), 24_000))
    return batches, list(batches)


class TestSummaryBatchOracles:
    """Summary batches as arrays and the greedy mapping in rounds, held ``==``
    to the per-batch objects and the heap loop they replaced."""

    @pytest.mark.parametrize("make", [lambda: polyethylene(100), rbd_like_protein], ids=["chain602", "protein"])
    def test_batches_equal_the_oracle(self, make):
        workload = build_workload(make(), get_settings("light"))
        got, want = synthetic_batches(workload), synthetic_batches_oracle(workload)
        for name, a, b in zip(BatchArrays._fields, got.arrays, want.arrays):
            assert a.dtype == b.dtype, name
            if name not in ("rows", "indptr", "indices"):  # shared rows: read below
                assert np.array_equal(a, b), name
        read, want_read = rows_as_read(got.arrays), rows_as_read(want.arrays)
        assert len(read) == len(want_read) == len(want)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(read, want_read))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.index, g.radius, g.owner_atoms, g.relevant_atoms) == (
                w.index, w.radius, w.owner_atoms, w.relevant_atoms,
            )
            assert type(g.radius) is type(w.radius)
            assert {type(a) for a in g.owner_atoms + g.relevant_atoms} == {int}
            assert g.centroid.dtype == w.centroid.dtype
            assert np.array_equal(g.centroid, w.centroid)
            gi, wi = g.point_indices, w.point_indices
            assert (gi.dtype, gi.shape, gi.strides, gi.flags.writeable) == (
                wi.dtype, wi.shape, wi.strides, wi.flags.writeable,
            )

    @pytest.mark.parametrize("n_ranks", [1, 7, 64, 4096])
    @pytest.mark.parametrize("kind", sorted(_SIZES))
    def test_rounds_equal_the_heap_loop(self, kind, n_ranks):
        batches, plain = _size_case(kind)
        want = load_balancing_oracle(plain, n_ranks)
        assert load_balancing_mapping(batches, n_ranks).batches_of_rank == want
        assert load_balancing_mapping(plain, n_ranks).batches_of_rank == want

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 3_000),
        n_ranks=st.integers(1, 400),
        sizes=st.sampled_from([(0, 1), (0, 300), (1, 2, 300), (0, 5, 6, 400), (7,)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_rounds_equal_the_heap_loop_on_few_sizes(self, seed, n, n_ranks, sizes):
        rng = np.random.default_rng(seed)
        batches = _sized(rng.choice(sizes, size=max(n, n_ranks)))
        got = load_balancing_mapping(batches, n_ranks)
        assert got.batches_of_rank == load_balancing_oracle(list(batches), n_ranks)
        assert {type(b) for owned in got.batches_of_rank for b in owned} <= {int}

    def test_overflowing_loads_rejected(self):
        with pytest.raises(MappingError, match="overflow the int64 keys"):
            load_balancing_mapping(_sized([2**61, 2**61]), 2)
