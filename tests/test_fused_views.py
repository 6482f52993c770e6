"""Fused batch views: the view algebra and the numerical contract.

A view fuses the batches that share one column set — near-identical
sets merged into their union, each member's padding zero — along points
(DESIGN §13.2); Sumup, H and the kinetic matrix contract it with a
folded-triangle product and a sign-split ``syrk`` (DESIGN §8).  The first
half pins what a view *is* — which points, which columns, in what order,
at what memory — the second half what the engine built on it *computes*:
bit for bit across engines, cache regimes and runs, and within 1e-13 of
each array's largest entry of the two per-batch derivations
(``MatrixBuilder.reference_*`` and the pre-fusion loop kept in
:mod:`tests.setup_oracles`).
"""

import ast
import functools
import hashlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import methane, polyethylene
from repro.atoms.builders import BUILTIN_MOLECULES
from repro.backends import BatchedBackend, Factored
from repro.config import get_settings
from repro.core.simulator import run_physics
from repro.dfpt.response import DFPTSolver
from repro.dft import hamiltonian
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.scf import SCFDriver
from repro.errors import GridError
from repro.grids.sparsity import (
    DEFAULT_SCREENING_THRESHOLD,
    MAX_VIEW_ROWS,
    MERGE_WINDOW,
    build_batch_views,
    merge_column_sets,
    view_cost,
)
from repro.utils import scratch as scratch_module
from tests.setup_oracles import (
    assert_close_at_scale,
    oracle_density_on_grid,
    oracle_kinetic,
    oracle_potential_matrix,
    screened_columns,
)

STRUCTURES = {name: make() for name, make in BUILTIN_MOLECULES.items()}
STRUCTURES.update(
    methane=methane(), polyethylene2=polyethylene(2), chain26=polyethylene(4)
)
THRESHOLDS = (0.0, 1e-8, 1e-6, 1e-4)
SRC = Path(__file__).resolve().parent.parent / "src"


@functools.lru_cache(maxsize=None)
def _substrate(name):
    return build_substrate(STRUCTURES[name], get_settings("minimal").grids)


@functools.lru_cache(maxsize=None)
def _screened_columns(name, threshold):
    sub = _substrate(name)
    return screened_columns(sub.batches, sub.basis, threshold)


@functools.lru_cache(maxsize=None)
def _builder(name, threshold, backend="numpy"):
    sub = _substrate(name)
    return MatrixBuilder(
        sub.basis, sub.grid, batches=sub.batches, backend=backend,
        screening_threshold=threshold,
    )


def _column_set(name, threshold, batch):
    """The columns one batch contracts: its relevant atoms' functions, or
    those whose screened reach touches it."""
    if threshold > 0.0:
        return _screened_columns(name, threshold)[batch.index]
    fn_atom = _substrate(name).basis.function_atoms
    return np.flatnonzero(np.isin(fn_atom, batch.relevant_atoms))


def _member_rows(view, batches):
    """``(batch id, lo, hi)`` per member batch of *view*: members lie
    whole and in order in the block (no test batch nears the row cap)."""
    by_index = {b.index: b for b in batches}
    bounds = np.cumsum([0] + [by_index[b].n_points for b in view.batches])
    assert bounds[-1] == view.point_indices.size
    assert view.bounds == tuple(bounds.tolist())
    return list(zip(view.batches, bounds[:-1], bounds[1:]))


def _views_digest(views):
    """One digest over everything that identifies a view list."""
    h = hashlib.sha1()
    for view in views:
        for part in (view.point_indices, view.cols, *view.padding):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr((view.atoms, view.batches, view.rows_hash, view.active_hash,
                       view.runs, view.elements, view.bounds)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# The view algebra
# ----------------------------------------------------------------------
class TestViewAlgebra:
    @given(
        name=st.sampled_from(sorted(STRUCTURES)),
        threshold=st.sampled_from(THRESHOLDS),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_views_partition_exactly_the_batches_they_were_given(
        self, name, threshold, data
    ):
        sub = _substrate(name)
        picked = data.draw(
            st.one_of(
                st.none(),
                st.lists(st.integers(0, len(sub.batches) - 1), unique=True),
            )
        )
        batches = sub.batches if picked is None else [sub.batches[i] for i in picked]
        views = build_batch_views(batches, sub.basis, threshold)
        by_index = {b.index: b for b in batches}
        with_work = [b for b in batches if _column_set(name, threshold, b).size]

        # Every point of a batch with work lies in exactly one view, and
        # no other point in any.
        got = np.concatenate([v.point_indices for v in views] + [np.empty(0, int)])
        want = np.concatenate([b.point_indices for b in with_work] + [np.empty(0, int)])
        assert np.array_equal(np.sort(got), np.sort(want))

        for view in views:
            assert 0 < view.point_indices.size <= MAX_VIEW_ROWS
            assert np.all(np.diff(view.cols) > 0)
            # The columns are the union of the members' own sets, and a
            # member's padding is the rest of them.
            own = [_column_set(name, threshold, by_index[b]) for b in view.batches]
            assert np.array_equal(view.cols, np.unique(np.concatenate(own)))
            for (b, lo, hi), mine, pad in zip(
                _member_rows(view, batches), own, view.padding
            ):
                assert np.isin(mine, view.cols).all()
                assert np.array_equal(pad, np.flatnonzero(~np.isin(view.cols, mine)))
                assert np.array_equal(view.point_indices[lo:hi], by_index[b].point_indices)
            # The runs are the columns, stretch by stretch.
            assert np.array_equal(
                np.concatenate([np.arange(m.start, m.stop) for m, _ in view.runs]),
                view.cols,
            )
            assert np.array_equal(
                np.concatenate([np.arange(b.start, b.stop) for _, b in view.runs]),
                np.arange(view.cols.size),
            )

        # gather / scatter_add are the cols x cols sub-block, run by run;
        # their ``upper`` forms are its on-and-above-diagonal half.
        nb = sub.basis.n_basis
        matrix = np.arange(nb * nb, dtype=float).reshape(nb, nb)
        for view in list(views)[:3]:
            pair = np.ix_(view.cols, view.cols)
            assert np.array_equal(view.gather(matrix), matrix[pair])
            assert np.array_equal(
                view.gather(np.triu(matrix), upper=True), np.triu(matrix)[pair]
            )
            block = matrix[pair] + 1.0
            full, half, want = matrix.copy(), matrix.copy(), matrix.copy()
            want[pair] += block
            view.scatter_add(full, block)
            view.scatter_add(half, block, upper=True)
            assert np.array_equal(full, want)
            assert np.array_equal(np.triu(half), np.triu(want))

        # The priced fields ignore fusion: each batch at its own width.
        n_points = sum(b.n_points for b in batches)
        priced = sum(b.n_points * _column_set(name, threshold, b).size for b in with_work)
        assert views.screened == (threshold > 0.0)
        assert views.n_points == n_points and views.n_batches == len(with_work)
        assert views.elements == priced == sum(v.elements for v in views)
        assert views.elements == views.stats.elements_active

        # O(cols), never O(cols^2): all index data a view list holds.
        held = sum(
            v.point_indices.nbytes + v.cols.nbytes
            + 16 * len(v.batches) + 32 * len(v.runs)
            + sum(pad.nbytes for pad in {id(p): p for p in v.padding}.values())
            for v in views
        )
        assert held <= 16 * sum(v.point_indices.size + v.cols.size for v in views)

        # Same input, same views.
        again = build_batch_views(batches, sub.basis, threshold)
        assert _views_digest(again) == _views_digest(views)

    def test_view_counts_of_the_benchmark_molecules(self):
        counts = {
            name: len(_builder(name, 0.0).views)
            for name in ("h2", "water", "methane", "chain26")
        }
        assert counts == {"h2": 1, "water": 1, "methane": 2, "chain26": 10}
        assert _builder("chain26", 0.0).views.n_batches == 256

    def test_views_do_not_depend_on_the_hash_seed(self):
        """Groups form in first-appearance order of a dict whose keys are
        tuples and ``bytes``; their hashes move with the seed, the views
        must not."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tests.test_fused_views import _builder, _views_digest\n"
            "print(_views_digest(_builder('polyethylene2', 0.0).views),\n"
            "      _views_digest(_builder('polyethylene2', 1e-6).views))\n"
        )
        want = "{} {}".format(
            _views_digest(_builder("polyethylene2", 0.0).views),
            _views_digest(_builder("polyethylene2", 1e-6).views),
        )
        # This process runs under one seed; a child under another.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script, str(SRC.parent)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == want

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_a_fused_block_is_its_batches_blocks_stacked(self, name, threshold):
        builder = _builder(name, threshold)
        basis = builder.basis
        alone = {}
        for batch in builder.batches:
            for view in build_batch_views([batch], basis, threshold):
                assert view.batches == (batch.index,)
                alone[batch.index] = (
                    {int(p): i for i, p in enumerate(view.point_indices)},
                    builder.evaluate_view(view),
                )
        for view in builder.views:
            block = builder.evaluate_view(view)
            assert block.flags.c_contiguous
            assert block.shape == (view.point_indices.size, view.cols.size)
            for (b, lo, hi), pad in zip(_member_rows(view, builder.batches), view.padding):
                # Each member on its own columns; its padding exactly +0.0.
                position, rows = alone[b]
                take = [position[int(p)] for p in view.point_indices[lo:hi]]
                mine = np.ones(view.cols.size, dtype=bool)
                mine[pad] = False
                assert np.array_equal(block[lo:hi][:, mine], rows[take])
                padded = block[lo:hi][:, pad]
                assert not padded.any() and not np.signbit(padded).any()

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_dense_views_drop_only_exact_zeros(self, name):
        """What makes dense compaction an identity, not a threshold."""
        builder = _builder(name, 0.0)
        basis, points = builder.basis, builder.grid.points
        for view in builder.views:
            dropped = np.ones(basis.n_basis, dtype=bool)
            dropped[view.cols] = False
            for lo in range(0, view.point_indices.size, 512):
                rows = view.point_indices[lo : lo + 512]
                assert not basis.evaluate(points[rows])[:, dropped].any()


# ----------------------------------------------------------------------
# The numerical contract
# ----------------------------------------------------------------------
def _inputs(builder, seed=18):
    rng = np.random.default_rng(seed)
    nb = builder.basis.n_basis
    p = rng.normal(size=(nb, nb))
    return p + p.T, rng.normal(size=builder.grid.n_points)


class TestAgainstThePerBatchDerivations:
    """Engine vs ``reference_*`` and vs the pre-fusion loop: 1e-13 of the
    array's scale (measured <= 2.4e-15)."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    @pytest.mark.parametrize("name", ["h2", "water", "methane", "chain26"])
    def test_sumup_h_and_the_setup_matrices(self, name, threshold):
        builder = _builder(name, threshold)
        p, v = _inputs(builder)
        density = builder.backend.density_on_grid(p)
        assert_close_at_scale(density, builder.reference_density(p))
        assert_close_at_scale(density, oracle_density_on_grid(builder, p))

        potentials = {
            "H": v,
            "S": np.ones(builder.grid.n_points),
            "V_ext": builder.external_potential(),
            **{f"D{j}": builder.grid.points[:, j] for j in range(3)},
        }
        dipoles = builder.dipole_matrices()
        for key, values in potentials.items():
            got = builder.potential_matrix(values)
            assert np.array_equal(got, got.T), key
            if key not in ("D1", "D2"):  # one code path: D0 stands for all three
                assert_close_at_scale(got, oracle_potential_matrix(builder, values))
            if key == "H":  # the reference seam is one loop too
                assert_close_at_scale(got, builder.reference_potential_matrix(values))
            if key.startswith("D"):
                assert np.array_equal(got, dipoles[int(key[1])])
        assert np.array_equal(builder.overlap(), builder.potential_matrix(potentials["S"]))
        kinetic = builder.kinetic()
        assert np.array_equal(kinetic, kinetic.T)
        assert_close_at_scale(kinetic, oracle_kinetic(builder))

    def test_reference_views_are_built_once_per_threshold(self, monkeypatch):
        sub = _substrate("water")
        builder = MatrixBuilder(
            sub.basis, sub.grid, batches=sub.batches, screening_threshold=1e-6
        )
        calls = []
        build = hamiltonian.build_batch_views
        monkeypatch.setattr(
            hamiltonian, "build_batch_views", lambda *a: calls.append(a) or build(*a)
        )
        p, v = _inputs(builder)
        first = builder.reference_density(p)
        n_batches = len(builder.batches)
        assert len(calls) == n_batches  # one call per batch: views stay unfused
        assert np.array_equal(builder.reference_density(p), first)
        builder.reference_potential_matrix(v)
        assert len(calls) == n_batches
        builder.reference_density(p, screened=False)  # the other threshold
        builder.reference_potential_matrix(v, screened=False)
        assert len(calls) == 2 * n_batches
        for screened in (True, False):
            views = builder._reference_views(screened)
            assert [b for view in views for b in view.batches] == [
                b.index for b in builder.batches
            ]

    def test_references_can_cross_the_screening_seam(self):
        builder, dense = _builder("chain26", 1e-6), _builder("chain26", 0.0)
        p, v = _inputs(builder)
        assert_close_at_scale(
            dense.backend.density_on_grid(p),
            builder.reference_density(p, screened=False),
        )
        assert_close_at_scale(
            oracle_potential_matrix(builder, v, screened=False),
            builder.reference_potential_matrix(v, screened=False),
        )


class TestBitExactAcrossEnginesAndRegimes:
    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    def test_every_engine_budget_scope_and_run(self, threshold):
        reference = _builder("polyethylene2", threshold)
        assert len(reference.views) > 1
        sub = _substrate("polyethylene2")
        p, v = _inputs(reference)
        want = (reference.backend.density_on_grid(p), reference.potential_matrix(v))
        table_bytes = 8 * sub.grid.n_points * sub.basis.n_basis
        engines = [
            "numpy",
            *(BatchedBackend(max_cache_bytes=b) for b in (0, 4096, table_bytes, None)),
        ]
        for engine in engines:
            builder = MatrixBuilder(
                sub.basis, sub.grid, batches=sub.batches, backend=engine,
                screening_threshold=threshold,
            )
            for _ in range(2):  # the second pass reads what the first cached
                got = (builder.backend.density_on_grid(p), builder.potential_matrix(v))
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), engine
        # T evaluates its own gradient blocks and never reads an engine's:
        # run to run is all there is to vary.
        assert np.array_equal(builder.kinetic(), reference.kinetic())


class TestMergeRule:
    """Near-identical column sets fuse into their union only where the
    rule's padded Gram work costs less than the view it saves."""

    @given(
        groups=st.lists(
            st.tuples(st.integers(1, 6000), st.integers(1, 2**40 - 1)),
            min_size=0, max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_a_merge_never_raises_the_rules_cost(self, groups):
        rows = [r for r, _ in groups]
        sets = [b for _, b in groups]
        parts = merge_column_sets(rows, sets)
        # A partition, each part in order, parts in order of their first.
        assert sorted(g for part in parts for g in part) == list(range(len(groups)))
        assert all(part == sorted(part) for part in parts)
        assert [part[0] for part in parts] == sorted(part[0] for part in parts)
        alone = [view_cost(r, b.bit_count()) for r, b in groups]
        total = 0.0
        for part in parts:
            union = functools.reduce(int.__or__, (sets[g] for g in part))
            fused = view_cost(sum(rows[g] for g in part), union.bit_count())
            assert fused <= sum(alone[g] for g in part)
            if len(part) > 1:
                assert fused < sum(alone[g] for g in part)
            total += fused
        assert total <= sum(alone)
        assert merge_column_sets(rows, sets) == parts  # deterministic

    def test_only_neighbours_in_batch_order_merge(self):
        """Two identical sets further apart than the window stay apart
        while the sets between them are far too different to join."""
        wide = (1 << 300) - 1
        for gap, want in ((MERGE_WINDOW, [0, MERGE_WINDOW]), (MERGE_WINDOW + 1, [0])):
            sets = [0b1] + [wide << (300 * i + 1) for i in range(gap - 1)] + [0b1]
            assert merge_column_sets([500] * (gap + 1), sets)[0] == want

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    @pytest.mark.parametrize("name", ["polyethylene2", "chain26"])
    def test_merging_keeps_every_priced_number(self, name, threshold):
        sub = _substrate(name)
        views = build_batch_views(sub.batches, sub.basis, threshold)
        alone = [build_batch_views([b], sub.basis, threshold) for b in sub.batches]
        assert views.padded_fraction > 0.0  # something merged
        for field in ("n_points", "n_batches", "elements"):
            assert getattr(views, field) == sum(getattr(v, field) for v in alone), field
        assert sum(v.elements for v in views) == views.elements

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    def test_engines_are_bitwise_equal_on_merged_views(self, threshold):
        reference = _builder("chain26", threshold)
        assert reference.views.padded_fraction > 0.0
        sub = _substrate("chain26")
        p, v = _inputs(reference)
        want = (reference.backend.density_on_grid(p), reference.potential_matrix(v))
        for engine in ("numpy", BatchedBackend(max_cache_bytes=0)):
            builder = MatrixBuilder(
                sub.basis, sub.grid, batches=sub.batches, backend=engine,
                screening_threshold=threshold,
            )
            got = (builder.backend.density_on_grid(p), builder.potential_matrix(v))
            for a, b in zip(got, want):
                assert np.array_equal(a, b), engine

    def test_the_profile_names_the_views_and_their_padding(self):
        from repro.utils.reports import format_backend_profile

        builder = _builder("chain26", 1e-6)
        profile = builder.backend.profile
        assert profile.view_count == len(builder.views) == 11
        assert profile.view_padded_fraction == builder.views.padded_fraction > 0.0
        assert profile.as_dict()["views"] == {
            "count": 11, "padded_fraction": builder.views.padded_fraction,
        }
        assert (
            f"views: 11 fused, {builder.views.padded_fraction:.1%} of block entries padding"
            in format_backend_profile(profile)
        )


class TestKernelEdges:
    def test_an_unsymmetric_density_matrix_gives_its_quadratic_form(self):
        builder = _builder("polyethylene2", 0.0)
        rng = np.random.default_rng(5)
        nb = builder.basis.n_basis
        p = rng.normal(size=(nb, nb))
        assert np.abs(p - p.T).max() > 1.0
        table = builder.basis_values()
        want = np.einsum("pi,ij,pj->p", table, p, table)
        got = builder.backend.density_on_grid(p)
        assert_close_at_scale(got, want)
        assert_close_at_scale(got, builder.backend.density_on_grid(0.5 * (p + p.T)))
        assert_close_at_scale(got, builder.backend.density_on_grid(p.T))

    @pytest.mark.parametrize(
        "kind", ["positive", "negative", "mixed", "zero", "one_row"]
    )
    def test_the_sign_split_of_h(self, kind):
        builder = _builder("polyethylene2", 0.0)
        rng = np.random.default_rng(6)
        n = builder.grid.n_points
        v = {
            "positive": rng.uniform(0.1, 2.0, n),
            "negative": -rng.uniform(0.1, 2.0, n),
            "mixed": rng.normal(size=n),
            "zero": np.zeros(n),
            "one_row": np.zeros(n),
        }[kind]
        if kind == "one_row":
            row = int(np.argmax(builder.grid.weights))
            v[row] = -3.0
        table = builder.basis_values()
        want = table.T @ (table * (builder.grid.weights * v)[:, None])
        got = builder.potential_matrix(v)
        assert np.array_equal(got, got.T)
        if kind == "zero":
            assert not got.any()
        else:
            assert_close_at_scale(got, 0.5 * (want + want.T))
        if kind == "positive":
            assert np.linalg.eigvalsh(got).min() > -1e-12
        if kind == "one_row":
            chi = table[row]
            assert_close_at_scale(
                got, -3.0 * builder.grid.weights[row] * np.outer(chi, chi)
            )

    def test_the_grid_kernels_stay_on_numpys_blas(self):
        """scipy's wheel carries a second OpenBLAS with its own thread
        pool; a loop alternating between the two stalls when threads are
        not pinned (DESIGN §8), which no pinned benchmark sees."""
        import repro.backends.base, repro.dft.hamiltonian, repro.dft.hartree

        for module in (repro.backends.base, repro.dft.hamiltonian, repro.dft.hartree):
            tree = ast.parse(inspect.getsource(module))
            names = [
                name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None), *(a.name for a in node.names)]
            ]
            assert not [n for n in names if n and n.split(".")[0] == "scipy"], module

    def test_hostile_potentials_and_density_matrices_are_refused(self):
        builder = _builder("h2", 0.0)
        n, nb = builder.grid.n_points, builder.basis.n_basis
        backend = builder.backend
        # (n, k) is k potentials; a row, a 3-D stack or k = 0 would
        # broadcast weights * v or scatter nothing.
        for bad in (np.ones((1, n)), np.ones((n, 1, 1)), np.ones((n, 0)), np.ones((n + 1, 2))):
            with pytest.raises(GridError, match="potential samples of shape"):
                backend.potential_matrix(bad)
        assert backend.potential_matrix(np.ones((n, 2))).shape == (2, nb, nb)
        for bad in (np.nan, np.inf, -np.inf):
            v = np.ones(n)
            v[n // 2] = bad
            with pytest.raises(GridError, match="non-finite"):
                backend.potential_matrix(v)
            p = np.eye(nb)
            p[0, -1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                backend.density_on_grid(p)


def _factors(builder, seed=21):
    """Random ``(L, X, C)``, each ``(n_basis, n_basis // 5)``: about the
    occupied share of the columns."""
    rng = np.random.default_rng(seed)
    shape = (builder.basis.n_basis, max(1, builder.basis.n_basis // 5))
    return tuple(rng.normal(size=shape) for _ in range(3))


class TestFactoredSumup:
    """The drivers' Sumup form: ``P`` by its factors (DESIGN §8)."""

    @pytest.mark.parametrize(
        "threshold", [0.0, DEFAULT_SCREENING_THRESHOLD], ids=["dense", "screened"]
    )
    @pytest.mark.parametrize("name", ["h2", "water", "chain26"])
    def test_both_forms_match_the_array_form(self, name, threshold):
        builder = _builder(name, threshold)
        backend = builder.backend
        left, x, c = _factors(builder)
        for density in (Factored(left), Factored(x, c)):
            got = backend.density_on_grid(density)
            want = backend.density_on_grid(density.matrix())
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("threshold", [0.0, 1e-6], ids=["dense", "screened"])
    def test_every_engine_is_bitwise_the_host_engine(self, threshold):
        reference = _builder("polyethylene2", threshold)
        left, x, c = _factors(reference)
        for density in (Factored(left), Factored(x, c)):
            want = reference.backend.density_on_grid(density)
            for engine in ("numpy", BatchedBackend(max_cache_bytes=0)):
                got = _builder("polyethylene2", threshold, engine)
                assert np.array_equal(got.backend.density_on_grid(density), want), engine

    def test_bad_factors_raise_the_array_forms_errors(self):
        builder = _builder("h2", 0.0)
        backend = builder.backend
        nb = builder.basis.n_basis
        with pytest.raises(ValueError, match="basis size"):
            backend.density_on_grid(Factored(np.ones((nb + 1, 2))))
        with pytest.raises(ValueError, match="basis size"):
            backend.density_on_grid(Factored(np.ones(nb)))
        with pytest.raises(ValueError, match="basis size"):  # mismatched k
            backend.density_on_grid(Factored(np.ones((nb, 2)), np.ones((nb, 3))))
        for bad in (np.nan, np.inf):
            x = np.ones((nb, 2))
            x[0, 1] = bad
            for density in (Factored(x), Factored(np.ones((nb, 2)), x)):
                with pytest.raises(ValueError, match="non-finite"):
                    backend.density_on_grid(density)

    def test_the_drivers_hand_sumup_only_factors(self):
        seen = []

        class Spy(BatchedBackend):
            def density_on_grid(self, density_matrix):
                seen.append(type(density_matrix))
                return super().density_on_grid(density_matrix)

        minimal = get_settings("minimal")
        gs = SCFDriver(STRUCTURES["h2"], minimal, backend=Spy()).run()
        DFPTSolver(gs, minimal.cpscf).solve_direction(0)
        assert len(seen) > gs.iterations + 1  # every SCF cycle, the re-evaluation, CPSCF
        assert set(seen) == {Factored}


class TestNoRowsByColsAllocationPerSweep:
    def test_a_warm_sweep_stays_inside_the_held_scratch(self, monkeypatch):
        """Sumup's ``phi @ T`` and H's scaled copy go to the calling
        thread's scratch block; what a sweep allocates is
        ``n_basis^2``-sized."""
        self._warm_sweep(monkeypatch, helper=False)

    def test_a_warm_two_core_sweep_stays_inside_each_threads_scratch(self, monkeypatch):
        """With the sweep helper on, each thread's held block is at least
        the largest lease it served, and the sweep still allocates only
        ``n_basis^2``-sized arrays."""
        self._warm_sweep(monkeypatch, helper=True)

    @staticmethod
    def _warm_sweep(monkeypatch, helper):
        from repro.backends import base as base_module, sweep

        monkeypatch.setattr(sweep, "_WIDTH", 2 if helper else 1)
        served = {}  # thread -> largest lease it served

        def leasing(shape):
            me = threading.get_ident()
            served[me] = max(served.get(me, 0), int(np.prod(shape)))
            return scratch_module.scratch(shape)

        monkeypatch.setattr(base_module, "scratch", leasing)
        sub = _substrate("chain26")
        builder = MatrixBuilder(sub.basis, sub.grid, batches=sub.batches)
        p, v = _inputs(builder)
        backend = builder.backend
        backend.density_on_grid(p), backend.potential_matrix(v)  # warm

        def held_blocks():
            blocks = {threading.get_ident(): scratch_module.held_block()}
            if helper:
                on_helper = sweep._the_helper().submit(
                    lambda: (threading.get_ident(), scratch_module.held_block())
                )
                blocks.update([on_helper.result()])
            return blocks

        held = held_blocks()
        largest = max(w.point_indices.size * w.cols.size for w in builder.views)
        assert max(served.values()) >= largest
        # The first view of a sweep always goes to an idle helper; which
        # others each thread serves depends on timing.
        assert set(served) <= set(held)
        assert (set(served) - {threading.get_ident()} != set()) == helper
        for thread, size in served.items():
            assert held[thread].size >= size

        def grow():  # size every block for whichever views it serves next
            with scratch_module.scratch((max(served.values()),)):
                pass

        if helper:
            sweep._the_helper().submit(grow).result()
        grow()
        held = held_blocks()
        tracemalloc.start()
        backend.density_on_grid(p), backend.potential_matrix(v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert all(held_blocks()[t] is block for t, block in held.items())
        # Well under one rows x cols block (2.9 MB here): what is live at
        # once is a handful of n_basis^2 arrays of 253 kB — the fold of P,
        # the accumulator, its mirror, a view's cols x cols block (and,
        # with a helper, the block it is computing and one finished
        # ahead of it).
        assert peak < 8 * 8 * builder.basis.n_basis**2 < 0.75 * 8 * largest

    def test_the_block_is_lent_to_one_kernel_step_at_a_time(self):
        with scratch_module.scratch((4, 4)):
            with pytest.raises(RuntimeError, match="already lent out"):
                with scratch_module.scratch((2,)):
                    pass
        with scratch_module.scratch((2,)) as again:  # released on the way out
            assert again.shape == (2,)

    def test_one_block_per_process_not_per_molecule(self):
        big = _builder("chain26", 0.0)
        small = _builder("h2", 0.0)
        p, _ = _inputs(big)
        big.backend.density_on_grid(p)
        held = scratch_module.held_block()
        small.backend.density_on_grid(np.eye(small.basis.n_basis))
        assert scratch_module.held_block() is held  # grown on demand, never shrunk


# ----------------------------------------------------------------------
# End to end against the parent commit
# ----------------------------------------------------------------------
#: Total energy (Ha) and polarizability diagonal saved from the parent
#: commit (per-batch GEMM loops), as exact hex floats.
PARENT = {
    "h2": (
        "-0x1.1e5449d653f52p+0",
        ["0x1.08b26c8959245p+2", "0x1.08b26c895cc9fp+2", "0x1.9097165f98e8ap+2"],
    ),
    "water": (
        "-0x1.2e14ba666b83ep+6",
        ["0x1.70b5bc0e7c0b8p+3", "0x1.501df223e2cb6p+3", "0x1.147fe62455084p+3"],
    ),
    "chain26": (
        "-0x1.362647103706dp+8",
        ["0x1.18566ff0df8fcp+7", "0x1.68751adbd807ep+6", "0x1.55df0c830b553p+6"],
    ),
}


#: The same from the commit before PR 19 (Hartree stage 3 as one stacked
#: ``(2 n_shells, n_lm) @ Y`` product per atom, Lowdin on every SCF
#: cycle); of the chain only the x response was run.
PARENT_OF_PR19 = {
    "h2": (
        "-0x1.1e5449d654564p+0",
        ["0x1.08b26c5b8ca11p+2", "0x1.08b26c5b88d50p+2", "0x1.909716555b222p+2"],
    ),
    "water": (
        "-0x1.2e14ba666b83dp+6",
        ["0x1.70b5bc0e7869dp+3", "0x1.501df223dd204p+3", "0x1.147fe62454320p+3"],
    ),
    "chain26": ("-0x1.362647103706bp+8", ["0x1.18566ff0df542p+7"]),
}


class TestObservablesAgainstTheParent:
    """Measured deltas (this commit - parent): energy +6.8e-14 / -5.7e-14 /
    +4.5e-13 Ha, polarizability 3.4e-9 / 2.1e-12 / 4.7e-13 of its largest
    entry (H2 / water / 26-chain).

    Sumup at the rank of the density (the drivers hand ``density_on_grid``
    the factors of ``P`` and ``P^(1)``) holds both anchors: against its
    own parent energy -2.1e-12 / -4.3e-14 / +2.3e-13 Ha and polarizability
    1.4e-9 / 4.6e-12 / 2.6e-13, SCF iterations and CPSCF cycles unchanged.

    PR 19 (interval-sorted Hartree plans; the potential moves by <= 7e-16
    of max|v|) holds both anchors: against its own parent energy +1.5e-12
    / +7.1e-14 / +1.1e-13 Ha and polarizability 7.3e-9 / 1.7e-12 / 3.7e-13,
    against PR 18's parent 5.1e-10 / 5.3e-12 on H2 / water.  H2 is the
    outlier by construction, not by either change: random relative noise
    of 1e-16, 1e-15 or 1e-14 on every v_H moves its energy by 1-2e-12 Ha
    and its alpha by 5-8e-9 through the CPSCF mixer (measured), so two
    commits that differ in any rounding sit that far apart and the bound
    against the second anchor is 5e-8 for H2.

    Merged column sets hold both anchors too: against their own parent
    H2 and water are bitwise, the 26-chain's energy is bitwise and its
    polarizability moves by 4.7e-13 of its largest entry.
    """

    ANCHORS = ((PARENT, {}), (PARENT_OF_PR19, {"h2": 5e-8}))

    @classmethod
    def _assert_anchored(cls, name, total_energy, alpha_diagonal):
        for anchor, alpha_rtol in cls.ANCHORS:
            energy, diagonal = anchor[name]
            # (a run along x only has the xx entry to compare)
            diagonal = np.array([float.fromhex(x) for x in diagonal[: len(alpha_diagonal)]])
            assert abs(total_energy - float.fromhex(energy)) < 1e-10
            assert (
                np.abs(alpha_diagonal - diagonal).max()
                < alpha_rtol.get(name, 1e-8) * diagonal.max()
            )

    @pytest.mark.parametrize("name", ["h2", "water"])
    def test_energy_and_polarizability(self, name):
        result = run_physics(STRUCTURES[name], get_settings("minimal"))
        self._assert_anchored(
            name, result.ground_state.total_energy, np.diag(result.polarizability)
        )

    def test_the_26_chain_along_its_axis(self):
        """SCF and the x response only, as ``chain26_physics`` runs it."""
        minimal = get_settings("minimal")
        sub = _substrate("chain26")
        gs = SCFDriver(
            STRUCTURES["chain26"], minimal,
            basis=sub.basis, grid=sub.grid, batches=sub.batches,
        ).run()
        column = DFPTSolver(gs, minimal.cpscf).solve_direction(0)
        alpha_xx = column.polarizability_column(gs.dipoles)[:1]
        self._assert_anchored("chain26", gs.total_energy, alpha_xx)
