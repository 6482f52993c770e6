"""Block-sparse screening: pattern construction, equivalence, caches.

The locality seam's contract, pinned from four sides:

* the pattern itself (thresholds, monotonicity, stats bookkeeping);
* threshold ``0.0`` is *disabled* — bitwise identical to the dense
  pre-screening path on every backend (property-tested over random
  chain molecules);
* positive thresholds keep every backend bit-identical to each other
  and within physics tolerance of dense;
* the host block cache composes with screening: a cached compact block
  is bitwise the column slice of the dense table, is never re-evaluated
  under the budget, and the LRU keys on the active-set hash.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.atoms import Structure, hydrogen_molecule, polyethylene, water
from repro.backends import BatchedBackend, available_backends
from repro.basis import build_basis
from repro.config import get_settings
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.errors import GridError
from repro.grids import (
    build_grid,
    build_sparsity_pattern,
    modeled_block_counts,
)
from repro.grids.sparsity import (
    DEFAULT_SCREENING_THRESHOLD,
    active_fraction_histogram,
)
from tests.setup_oracles import assert_close_at_scale

BACKENDS = tuple(available_backends())


def _chain(seed: int, n_atoms: int) -> Structure:
    """A jittered self-avoiding H chain — elongated enough that screening
    has something to drop, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(-0.6, 0.6, size=(n_atoms, 3))
    steps[:, 0] = rng.uniform(1.8, 2.6, size=n_atoms)  # march along +x
    coords = np.cumsum(steps, axis=0)
    return Structure(["H"] * n_atoms, coords, name=f"chain{seed}")


def _builders(structure, threshold, backend="numpy", max_cache_bytes=None):
    """(dense, screened) builders sharing one basis/grid/batches.

    *max_cache_bytes* gives each builder its own host engine with that
    block-cache budget instead of the named backend.
    """
    settings = get_settings("minimal")
    basis = build_basis(structure)
    grid = build_grid(structure, settings.grids, with_partition=True)

    def engine():
        if max_cache_bytes is None:
            return backend
        return BatchedBackend(max_cache_bytes=max_cache_bytes)

    dense = MatrixBuilder(basis, grid, backend=engine())
    screened = MatrixBuilder(
        basis,
        grid,
        batches=dense.batches,
        backend=engine(),
        screening_threshold=threshold,
    )
    return dense, screened


def _probe_inputs(builder, seed=7):
    rng = np.random.default_rng(seed)
    nb = builder.basis.n_basis
    p = rng.normal(size=(nb, nb))
    return p + p.T, rng.normal(size=builder.grid.n_points)


class TestPatternConstruction:
    def test_zero_threshold_is_rejected(self):
        structure = water()
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid)
        with pytest.raises(GridError):
            build_sparsity_pattern(basis, builder.batches, 0.0)

    def test_disabled_screening_builds_no_pattern(self):
        structure = water()
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid, screening_threshold=0.0)
        assert builder.pattern is None
        assert builder.screening_threshold == 0.0

    def test_stats_bookkeeping_is_consistent(self):
        _, screened = _builders(_chain(3, 6), DEFAULT_SCREENING_THRESHOLD)
        pattern = screened.pattern
        stats = pattern.stats
        n_atoms = screened.grid.structure.n_atoms
        assert stats.n_batches == len(screened.batches) == pattern.n_batches
        assert stats.blocks_dense == stats.n_batches * n_atoms
        assert stats.blocks_active == sum(
            len(a) for a in pattern.active_atoms
        )
        assert 0.0 < stats.fill_fraction <= 1.0
        assert sum(stats.histogram) == stats.n_batches
        assert stats.block_reduction >= 1.0
        # Every active function's owner atom is in the batch's atom set.
        fn_atom = screened.basis.function_atoms
        for b in range(pattern.n_batches):
            owners = set(fn_atom[pattern.active_functions[b]].tolist())
            assert owners <= set(pattern.active_atoms[b])

    def test_matrix_nnz_counts_block_mask_elements(self):
        _, screened = _builders(_chain(4, 5), DEFAULT_SCREENING_THRESHOLD)
        pattern = screened.pattern
        fn_counts = np.bincount(
            screened.basis.function_atoms,
            minlength=screened.grid.structure.n_atoms,
        )
        expected = int(fn_counts @ pattern.block_mask @ fn_counts)
        assert pattern.matrix_nnz == expected
        assert pattern.matrix_nnz <= screened.basis.n_basis**2

    @given(
        seed=st.integers(0, 1000),
        tighter=st.sampled_from([1e-10, 1e-8, 1e-6]),
        factor=st.sampled_from([10.0, 1e3, 1e5]),
    )
    @hyp_settings(max_examples=25, deadline=None)
    def test_function_cutoffs_monotone_in_threshold(
        self, seed, tighter, factor
    ):
        basis = build_basis(_chain(seed, 3))
        r_tight = basis.screened_function_cutoffs(tighter)
        r_loose = basis.screened_function_cutoffs(tighter * factor)
        assert np.all(r_loose <= r_tight)
        assert np.all(r_tight <= basis.atom_cutoffs[basis.function_atoms])

    def test_active_sets_nest_as_threshold_loosens(self):
        structure = _chain(11, 6)
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid)
        tight = build_sparsity_pattern(basis, builder.batches, 1e-9)
        loose = build_sparsity_pattern(basis, builder.batches, 1e-4)
        for b in range(tight.n_batches):
            assert set(loose.active_functions[b]) <= set(
                tight.active_functions[b]
            )
        assert loose.stats.blocks_active <= tight.stats.blocks_active
        assert not np.any(loose.block_mask & ~tight.block_mask)


    # Recorded at the parent of PR 21 (253d9c2, per-chunk all-pairs loop),
    # minimal grids: (threshold, blocks_active, elements_active, matrix_nnz,
    # histogram).  The shared search must not move one of them.
    @pytest.mark.parametrize(
        "structure, threshold, blocks, elements, nnz, histogram",
        [
            (hydrogen_molecule(), 1e-6, 32, 8320, 100, [0] * 9 + [16]),
            (water(), 1e-6, 96, 33306, 441, [0] * 9 + [32]),
            (polyethylene(4), 1e-6, 5578, 1925444, 31684,
             [0, 0, 0, 0, 6, 0, 49, 30, 69, 102]),
            (polyethylene(4), 1e-3, 5441, 1753638, 31684,
             [0, 0, 0, 0, 11, 47, 34, 57, 61, 46]),
        ],
        ids=["h2", "water", "pe4-1e-6", "pe4-1e-3"],
    )
    def test_pattern_equals_the_parents(
        self, structure, threshold, blocks, elements, nnz, histogram
    ):
        sub = build_substrate(structure, get_settings("minimal").grids)
        pattern = build_sparsity_pattern(sub.basis, sub.batches, threshold)
        stats = pattern.stats
        assert (stats.blocks_active, stats.elements_active) == (blocks, elements)
        assert pattern.matrix_nnz == nnz
        assert list(stats.histogram) == histogram
        fn_atom = sub.basis.function_atoms
        for act, atoms in zip(pattern.active_functions, pattern.active_atoms):
            assert act.dtype == np.int64 and np.all(np.diff(act) > 0)
            assert atoms == tuple(np.unique(fn_atom[act]).tolist())

class TestHistogramDoctestNeighbour:
    def test_histogram_edge_cases(self):
        assert active_fraction_histogram([], bins=4) == (0, 0, 0, 0)
        assert active_fraction_histogram([1.0, 1.0], bins=2) == (0, 2)


class TestThresholdZeroBitIdentity:
    """threshold 0 == the dense pre-screening path, on every backend."""

    @given(seed=st.integers(0, 1000))
    @hyp_settings(max_examples=5, deadline=None)
    def test_all_backends_match_dense_bitwise(self, seed):
        structure = _chain(seed, 3)
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        reference = MatrixBuilder(basis, grid, backend="numpy")
        p, v = _probe_inputs(reference)
        density_ref = reference.backend.density_on_grid(p)
        potential_ref = reference.potential_matrix(v)
        for name in BACKENDS:
            builder = MatrixBuilder(
                basis,
                grid,
                batches=reference.batches,
                backend=name,
                screening_threshold=0.0,
            )
            assert builder.pattern is None
            np.testing.assert_array_equal(
                builder.backend.density_on_grid(p), density_ref
            )
            np.testing.assert_array_equal(
                builder.potential_matrix(v), potential_ref
            )


class TestScreenedBackendAgreement:
    @pytest.fixture(scope="class")
    def workload(self):
        structure = _chain(42, 5)
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        reference = MatrixBuilder(basis, grid, backend="numpy")
        return structure, basis, grid, reference

    def test_backends_bit_identical_to_each_other(self, workload):
        _, basis, grid, reference = workload
        p, v = _probe_inputs(reference)
        results = {}
        for name in BACKENDS:
            builder = MatrixBuilder(
                basis,
                grid,
                batches=reference.batches,
                backend=name,
                screening_threshold=DEFAULT_SCREENING_THRESHOLD,
            )
            results[name] = (
                builder.backend.density_on_grid(p),
                builder.potential_matrix(v),
            )
            # The backend-free per-batch references differ by summation
            # order only, on both sides of the seam: screened against
            # this engine, dense against dense.
            assert_close_at_scale(results[name][0], builder.reference_density(p))
            assert_close_at_scale(
                results[name][1], builder.reference_potential_matrix(v)
            )
            assert_close_at_scale(
                reference.backend.density_on_grid(p),
                builder.reference_density(p, screened=False),
            )
            assert_close_at_scale(
                reference.potential_matrix(v),
                builder.reference_potential_matrix(v, screened=False),
            )
        d0, m0 = results["numpy"]
        for name in BACKENDS[1:]:
            np.testing.assert_array_equal(results[name][0], d0)
            np.testing.assert_array_equal(results[name][1], m0)

    def test_screened_close_to_dense(self, workload):
        _, basis, grid, reference = workload
        p, v = _probe_inputs(reference)
        screened = MatrixBuilder(
            basis,
            grid,
            batches=reference.batches,
            screening_threshold=DEFAULT_SCREENING_THRESHOLD,
        )
        d_diff = np.abs(
            screened.backend.density_on_grid(p)
            - reference.backend.density_on_grid(p)
        ).max()
        m_diff = np.abs(
            screened.potential_matrix(v) - reference.potential_matrix(v)
        ).max()
        scale = max(1.0, float(np.abs(p).max()))
        assert d_diff < 1e-4 * scale
        assert m_diff < 1e-5 * scale

    def test_kinetic_and_overlap_close_to_dense(self, workload):
        _, basis, grid, reference = workload
        screened = MatrixBuilder(
            basis,
            grid,
            batches=reference.batches,
            screening_threshold=DEFAULT_SCREENING_THRESHOLD,
        )
        assert (
            np.abs(screened.kinetic() - reference.kinetic()).max() < 1e-6
        )
        assert (
            np.abs(screened.overlap() - reference.overlap()).max() < 1e-7
        )


class TestTableCacheCompose:
    """Regression: the block cache and screening compose — a cached
    compact block is the dense table's column slice, bit for bit, and
    under the budget it is never evaluated a second time."""

    def test_no_reevaluation_after_table_build(self, monkeypatch):
        _, screened = _builders(_chain(9, 4), DEFAULT_SCREENING_THRESHOLD)
        p, v = _probe_inputs(screened)
        screened.backend.density_on_grid(p)  # the first sweep fills the cache
        assert screened.backend.profile.cache_misses == len(screened.views)
        calls = {"n": 0}
        real_evaluate = screened.basis.evaluate

        def counting_evaluate(*args, **kwargs):
            calls["n"] += 1
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(screened.basis, "evaluate", counting_evaluate)
        screened.backend.density_on_grid(p)
        screened.potential_matrix(v)
        assert calls["n"] == 0

    def test_sliced_block_equals_fresh_compact_evaluation(self):
        _, screened = _builders(_chain(9, 4), DEFAULT_SCREENING_THRESHOLD)
        pattern = screened.pattern
        table = screened.basis_values()
        for b in screened.batches[:4]:
            act = pattern.active_functions[b.index]
            fresh = screened.basis.evaluate(
                screened.grid.points[b.point_indices],
                atoms=pattern.active_atoms[b.index],
            )[:, act]
            np.testing.assert_array_equal(
                table[b.point_indices][:, act], fresh
            )
        # The same statement through the seam: the engine's one block
        # source, fed a view, against the builder's fresh evaluation.
        for view in screened.views.views[:4]:
            np.testing.assert_array_equal(
                screened.backend.basis_block(view), screened.evaluate_view(view)
            )

    def test_over_limit_screened_path_matches_cached(self):
        dense_c, screened_c = _builders(
            _chain(9, 4), DEFAULT_SCREENING_THRESHOLD
        )
        _, screened_s = _builders(
            _chain(9, 4), DEFAULT_SCREENING_THRESHOLD, max_cache_bytes=0
        )
        p, v = _probe_inputs(screened_c)
        np.testing.assert_array_equal(
            screened_c.backend.density_on_grid(p),
            screened_s.backend.density_on_grid(p),
        )
        np.testing.assert_array_equal(
            screened_c.potential_matrix(v), screened_s.potential_matrix(v)
        )
        assert screened_c.backend.profile.cache_hits == len(screened_c.views)
        assert screened_s.backend.profile.cache_hits == 0


class TestBatchedLRUKeys:
    def test_screened_keys_carry_the_active_set_hash(self):
        _, screened = _builders(
            _chain(5, 4), DEFAULT_SCREENING_THRESHOLD
        )
        p, _ = _probe_inputs(screened)
        screened.backend.density_on_grid(p)
        keys = list(screened.backend.cache._blocks.keys())
        assert keys, "host backend cached no blocks"
        assert all(scope is None and h is not None for scope, _, h in keys)
        hashes = {screened.pattern.active_hash(i) for i, _ in enumerate(
            screened.batches
        )}
        assert {h for _, _, h in keys} <= hashes

    def test_second_sweep_hits_the_cache(self):
        _, screened = _builders(
            _chain(5, 4), DEFAULT_SCREENING_THRESHOLD
        )
        p, _ = _probe_inputs(screened)
        first = screened.backend.density_on_grid(p)
        profile = screened.backend.profile.as_dict()["cache"]
        misses_after_first = profile["misses"]
        second = screened.backend.density_on_grid(p)
        profile = screened.backend.profile.as_dict()["cache"]
        np.testing.assert_array_equal(first, second)
        assert profile["misses"] == misses_after_first == len(screened.views)
        assert profile["hits"] == len(screened.views)

    def test_distinct_thresholds_produce_distinct_keys(self):
        structure = _chain(5, 10)
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid)
        tight = build_sparsity_pattern(basis, builder.batches, 1e-9)
        loose = build_sparsity_pattern(basis, builder.batches, 1e-2)
        differing = [
            b
            for b in range(tight.n_batches)
            if tight.active_functions[b].size != loose.active_functions[b].size
        ]
        assert differing, "thresholds produced identical active sets"
        for b in differing:
            assert tight.active_hash(b) != loose.active_hash(b)


class TestScreeningCounters:
    def test_profile_records_screening_activity(self):
        _, screened = _builders(_chain(21, 5), DEFAULT_SCREENING_THRESHOLD)
        p, v = _probe_inputs(screened)
        screened.backend.density_on_grid(p)
        screened.potential_matrix(v)
        doc = screened.backend.profile.as_dict()["sparsity"]
        stats = screened.pattern.stats
        # Two screened phase passes, each touching every batch once.
        assert doc["blocks_evaluated"] == 2 * stats.blocks_active
        assert (
            doc["blocks_evaluated"] + doc["blocks_skipped"]
            == 2 * stats.blocks_dense
        )
        assert doc["fill_fraction"] == pytest.approx(stats.fill_fraction)
        assert tuple(doc["histogram"]) == stats.histogram
        assert doc["elements_active"] > 0

    def test_blocks_evaluated_metric_is_linear_and_engine_independent(self):
        """k screened Sumup+H passes read ``2 k blocks_active`` on every
        engine's profile — the count is charged once per pass, and
        engines overriding the phase implementations (device) charge it
        too."""
        readings = {}
        for name in BACKENDS:
            _, screened = _builders(
                _chain(21, 5), DEFAULT_SCREENING_THRESHOLD, backend=name
            )
            p, v = _probe_inputs(screened)
            active = screened.pattern.stats.blocks_active
            readings[name] = []
            for k in (1, 2, 3):
                screened.backend.density_on_grid(p)
                screened.potential_matrix(v)
                metric = screened.backend.profile.screen_blocks_evaluated
                assert metric == 2 * k * active
                readings[name].append(metric)
        assert len({tuple(r) for r in readings.values()}) == 1

    def test_dense_profile_reports_no_screening(self):
        dense, _ = _builders(_chain(21, 5), DEFAULT_SCREENING_THRESHOLD)
        p, _ = _probe_inputs(dense)
        dense.backend.density_on_grid(p)
        doc = dense.backend.profile.as_dict()["sparsity"]
        assert doc["blocks_evaluated"] == 0
        assert doc["fill_fraction"] == 0.0


class TestModeledBlockCounts:
    def test_polymer_reduction_grows_with_chain_length(self):
        short = modeled_block_counts(polyethylene(8))
        long = modeled_block_counts(polyethylene(32))
        assert short["block_reduction"] > 1.0
        assert long["block_reduction"] > short["block_reduction"]
        assert long["fill_fraction"] < short["fill_fraction"]

    def test_active_blocks_scale_linearly_not_quadratically(self):
        a = modeled_block_counts(polyethylene(16))
        b = modeled_block_counts(polyethylene(32))
        dense_ratio = b["blocks_dense"] / a["blocks_dense"]
        active_ratio = b["blocks_active"] / a["blocks_active"]
        assert dense_ratio > 3.5  # ~4x: both factors doubled
        assert active_ratio < 2.5  # ~2x: locality keeps it linear

    def test_counts_match_a_real_pattern_shape(self):
        doc = modeled_block_counts(polyethylene(4), threshold=1e-6)
        assert doc["n_atoms"] == 26
        assert doc["blocks_dense"] == doc["n_batches"] * doc["n_atoms"]
        assert 0.0 < doc["fill_fraction"] <= 1.0
        assert doc["threshold"] == 1e-6

    # Recorded at the parent of PR 21 (253d9c2, bucket-dict cell list).
    @pytest.mark.parametrize(
        "structure, blocks, elements",
        [
            (hydrogen_molecule(), 24, 24000),
            (water(), 69, 96600),
            (polyethylene(4), 3928, 5251000),
            (polyethylene(100), 123160, 166732600),
        ],
        ids=["h2", "water", "pe4", "chain602"],
    )
    def test_counts_equal_the_parents(self, structure, blocks, elements):
        doc = modeled_block_counts(structure)
        assert (doc["blocks_active"], doc["elements_active"]) == (blocks, elements)
