"""Batch-local screening: the column mask, equivalence, caches.

The locality seam's contract, pinned from four sides:

* the mask itself: it picks exactly the sets a search over every
  function of the structure picks, nests as the threshold loosens, and
  its stats say what it kept of the relevant-atom blocks;
* threshold ``0.0`` is *disabled* — bitwise identical to the dense
  pre-screening path on every backend (property-tested over random
  chain molecules);
* positive thresholds keep every backend bit-identical to each other
  and within physics tolerance of dense;
* the host block cache composes with screening: a cached compact block
  is bitwise the column slice of the dense table, is never re-evaluated
  under the budget, and the LRU keys on the column-set hash.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.atoms import Structure, hydrogen_molecule, methane, polyethylene, water
from repro.backends import BatchedBackend, available_backends
from repro.basis import build_basis
from repro.config import get_settings
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.grids import build_grid
from repro.grids import sparsity
from repro.grids.batching import batch_arrays
from repro.grids.sparsity import (
    DEFAULT_SCREENING_THRESHOLD,
    batch_columns,
    build_batch_views,
)
from tests.setup_oracles import assert_close_at_scale, screened_columns

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


def _columns(batches, basis, threshold):
    """Per batch, its column set as :func:`batch_columns` gives it."""
    indptr, cols = batch_columns(batch_arrays(batches), basis, threshold)
    return np.split(cols, indptr[1:-1]) if len(batches) else []


MASKED = {
    "h2": hydrogen_molecule(), "water": water(), "methane": methane(),
    "pe4": polyethylene(4), "pe5": polyethylene(5),
}


class TestPatternConstruction:
    def test_zero_threshold_masks_nothing(self):
        sub = build_substrate(_chain(3, 6), get_settings("minimal").grids)
        views = build_batch_views(sub.batches, sub.basis, 0.0)
        fn_atom = sub.basis.function_atoms
        for b, cols in zip(sub.batches, _columns(sub.batches, sub.basis, 0.0)):
            assert np.array_equal(cols, np.flatnonzero(np.isin(fn_atom, b.relevant_atoms)))
        stats = views.stats
        assert not views.screened
        assert (stats.blocks_active, stats.elements_active) == (
            stats.blocks_relevant, stats.elements_relevant
        )
        assert stats.fill_fraction == 1.0 == stats.block_reduction

    def test_disabled_screening_builds_no_pattern(self):
        structure = water()
        settings = get_settings("minimal")
        basis = build_basis(structure)
        grid = build_grid(structure, settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid, screening_threshold=0.0)
        assert builder.pattern is None and not builder.views.screened
        assert builder.screening_threshold == 0.0

    def test_stats_bookkeeping_is_consistent(self):
        _, screened = _builders(_chain(3, 6), DEFAULT_SCREENING_THRESHOLD)
        views, basis = screened.views, screened.basis
        stats = views.stats
        assert screened.pattern is views
        fn_atom = basis.function_atoms
        columns = _columns(screened.batches, basis, DEFAULT_SCREENING_THRESHOLD)
        assert stats.blocks_relevant == sum(len(b.relevant_atoms) for b in screened.batches)
        assert stats.blocks_active == sum(np.unique(fn_atom[c]).size for c in columns)
        assert stats.elements_active == views.elements == sum(
            b.n_points * c.size for b, c in zip(screened.batches, columns)
        )
        assert stats.elements_relevant == sum(
            b.n_points * np.isin(fn_atom, b.relevant_atoms).sum() for b in screened.batches
        )
        assert 0.0 < stats.fill_fraction <= 1.0 <= stats.block_reduction
        # Every kept function's owner atom is relevant to the batch.
        for b, cols in zip(screened.batches, columns):
            assert set(fn_atom[cols].tolist()) <= set(b.relevant_atoms)

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
        sub = build_substrate(_chain(11, 6), get_settings("minimal").grids)
        tight = _columns(sub.batches, sub.basis, 1e-9)
        loose = _columns(sub.batches, sub.basis, 1e-4)
        for t, l in zip(tight, loose):
            assert set(l.tolist()) <= set(t.tolist())
        blocks = [
            build_batch_views(sub.batches, sub.basis, t).stats.blocks_active
            for t in (1e-9, 1e-4)
        ]
        assert blocks[1] <= blocks[0]

    # Recorded at the parent of PR 21 (253d9c2, per-chunk all-pairs loop),
    # minimal grids: (threshold, blocks_active, elements_active).  The
    # column mask must not move one of them.
    @pytest.mark.parametrize(
        "structure, threshold, blocks, elements",
        [
            (hydrogen_molecule(), 1e-6, 32, 8320),
            (water(), 1e-6, 96, 33306),
            (polyethylene(4), 1e-6, 5578, 1925444),
            (polyethylene(4), 1e-3, 5441, 1753638),
        ],
        ids=["h2", "water", "pe4-1e-6", "pe4-1e-3"],
    )
    def test_pattern_equals_the_parents(self, structure, threshold, blocks, elements):
        sub = build_substrate(structure, get_settings("minimal").grids)
        stats = build_batch_views(sub.batches, sub.basis, threshold).stats
        assert (stats.blocks_active, stats.elements_active) == (blocks, elements)
        for cols in _columns(sub.batches, sub.basis, threshold):
            assert cols.dtype == np.int64 and np.all(np.diff(cols) > 0)

    @pytest.mark.parametrize("threshold", [1e-8, 1e-6, 1e-3, 1e-2])
    @pytest.mark.parametrize("name", sorted(MASKED))
    def test_the_mask_picks_the_old_sets(self, name, threshold, monkeypatch):
        """Each batch's masked columns are row b of the search over every
        function, and the views are field for field those a build on the
        search's sets gives."""
        sub = build_substrate(MASKED[name], get_settings("minimal").grids)
        want = screened_columns(sub.batches, sub.basis, threshold)
        got = _columns(sub.batches, sub.basis, threshold)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

        views = build_batch_views(sub.batches, sub.basis, threshold)
        indptr = np.cumsum([0] + [w.size for w in want])
        monkeypatch.setattr(
            sparsity, "batch_columns",
            lambda arrays, basis, threshold=0.0: (indptr, np.concatenate(want)),
        )
        oracle = build_batch_views(sub.batches, sub.basis, threshold)
        assert len(views) == len(oracle) and views.stats == oracle.stats
        for v, o in zip(views, oracle):
            for field in ("cols", "point_indices"):
                assert np.array_equal(getattr(v, field), getattr(o, field)), field
            assert (v.batches, v.bounds, v.runs, v.atoms, v.active_hash, v.elements) == (
                o.batches, o.bounds, o.runs, o.atoms, o.active_hash, o.elements
            )
            assert all(np.array_equal(a, b) for a, b in zip(v.padding, o.padding))


class TestPricedAsRun:
    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    def test_views_price_the_columns_they_contract(self, threshold):
        """Elements are each member's rows times its own columns: the
        block's entries less its padding, screened or not."""
        sub = build_substrate(polyethylene(4), get_settings("minimal").grids)
        views = build_batch_views(sub.batches, sub.basis, threshold)
        for view in views:
            held = view.point_indices.size * view.cols.size
            assert view.elements == held - view.padded_elements
        assert views.elements == sum(v.elements for v in views)
        assert views.elements < sub.grid.n_points * sub.basis.n_basis


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
        table = screened.basis_values()
        columns = screened_columns(
            screened.batches, screened.basis, DEFAULT_SCREENING_THRESHOLD
        )
        for b in screened.batches[:4]:
            act = columns[b.index]
            fresh = screened.basis.evaluate(
                screened.grid.points[b.point_indices],
                atoms=tuple(np.unique(screened.basis.function_atoms[act]).tolist()),
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
        assert {h for _, _, h in keys} == {v.active_hash for v in screened.views}

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

        def digests(threshold):  # per batch, its own view's key part
            return [
                [v.active_hash for v in build_batch_views([b], basis, threshold)]
                for b in builder.batches
            ]

        differing = [
            (t, l) for t, l in zip(digests(1e-9), digests(1e-2)) if t != l
        ]
        assert differing, "thresholds produced identical column sets"
        for tight, loose in differing:
            assert not set(tight) & set(loose)


class TestScreeningCounters:
    def test_profile_records_screening_activity(self):
        _, screened = _builders(_chain(21, 5), DEFAULT_SCREENING_THRESHOLD)
        p, v = _probe_inputs(screened)
        screened.backend.density_on_grid(p)
        screened.potential_matrix(v)
        doc = screened.backend.profile.as_dict()["sparsity"]
        stats = screened.views.stats
        # Two screened phase passes, each touching every batch once.
        assert doc == {
            "blocks_evaluated": 2 * stats.blocks_active,
            "blocks_skipped": 2 * (stats.blocks_relevant - stats.blocks_active),
        }
        assert stats.blocks_active > 0

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
            active = screened.views.stats.blocks_active
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
        assert doc == {"blocks_evaluated": 0, "blocks_skipped": 0}

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    def test_dm_phase_prices_the_dense_rotation(self, threshold):
        """The Sternheimer rotation reads h1 whole, so the DM phase is
        ``n_basis**2`` elements whatever the grid phases screened."""
        dense, screened = _builders(_chain(4, 5), threshold or 1e-6)
        builder = screened if threshold else dense
        nb, n_occ = builder.basis.n_basis, 2
        rng = np.random.default_rng(3)
        c = np.linalg.qr(rng.normal(size=(nb, nb)))[0]
        builder.backend.first_order_dm(
            rng.normal(size=(nb, nb)), np.ones((nb - n_occ, n_occ)),
            c[:, :n_occ], c[:, n_occ:], np.full(n_occ, 2.0),
        )
        assert builder.backend.profile.phases["DM"].elements == nb * nb
