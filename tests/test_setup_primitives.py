"""The two set-up primitives against their pre-PR-17 loops (DESIGN §5.2).

``BasisSet.evaluate*`` is held to the per-shell loop bit for bit, the
Becke weights to the per-pair loop at ``atol = 2e-15``; the oracles live
in :mod:`tests.setup_oracles`.  Two cost guards need no wall clock: one
interval lookup per species per call, and a bounded Becke temporary.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.grids.partition as partition
from repro.atoms import Structure, hydrogen_molecule, polyethylene, water
from repro.atoms.builders import BUILTIN_MOLECULES
from repro.basis.basis_set import BasisSet, build_basis
from repro.basis.spline import SplineSystem
from repro.core.simulator import iter_physics
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.scf import SCFDriver
from repro.errors import GridError
from repro.grids import becke_weights, build_grid
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD, build_batch_views
from repro.utils import drain
from tests.setup_oracles import (
    shell_instances,
    oracle_becke_weights,
    oracle_evaluate,
    oracle_evaluate_with_gradients,
    oracle_partition_weights,
)

#: Partition weights: two multiplications round differently from ``pow``.
WEIGHT_ATOL = 2e-15

STRUCTURES = {name: make() for name, make in BUILTIN_MOLECULES.items()}
STRUCTURES["polyethylene2"] = polyethylene(2)
BASES = {name: build_basis(s) for name, s in STRUCTURES.items()}


@pytest.fixture(scope="module")
def chain26(minimal_settings):
    """The 26-chain's basis and grid, with the per-pair loop's weights
    beside the grid's own."""
    structure = polyethylene(4)
    grid = build_grid(structure, minimal_settings.grids, with_partition=True)
    return build_basis(structure), grid, oracle_partition_weights(grid)


def _pinned_grid(structure, grid_settings, weights=None):
    """A grid carrying the per-pair loop's partition weights."""
    grid = build_grid(structure, grid_settings)
    grid.partition_weights = (
        oracle_partition_weights(grid) if weights is None else weights
    )
    return grid


# ----------------------------------------------------------------------
# Basis evaluation
# ----------------------------------------------------------------------
def _probe_points(basis, rng, n_random):
    """Random points around the molecule plus the three edge cases: on a
    nucleus, at a shell's cutoff radius, and beyond every cutoff."""
    coords = basis.structure.coords
    lo, hi = basis.structure.bounding_box(padding=4.0)
    shells = shell_instances(basis)
    inst = shells[int(rng.integers(len(shells)))]
    return np.vstack(
        [
            rng.uniform(lo, hi, size=(n_random, 3)),
            coords[int(rng.integers(len(coords)))],
            inst.center + [inst.cutoff, 0.0, 0.0],
            hi + 40.0 + rng.uniform(0.0, 5.0, size=(3, 3)),
        ]
    )


def _atom_choices(n_atoms, rng):
    """``atoms=`` as None, empty, unsorted, and with duplicates."""
    some = rng.permutation(n_atoms)[: max(1, n_atoms // 2)]
    return [None, [], list(some[::-1]), list(some) + [int(some[0])], (int(some[0]),)]


class TestStackedEvaluation:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(BASES)),
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 24),
    )
    def test_bitwise_equal_to_the_per_shell_loop(self, name, seed, n_random):
        basis = BASES[name]
        rng = np.random.default_rng(seed)
        points = _probe_points(basis, rng, n_random)
        for atoms in _atom_choices(basis.structure.n_atoms, rng):
            want_v, want_g = oracle_evaluate_with_gradients(basis, points, atoms)
            values, grads = basis.evaluate_with_gradients(points, atoms=atoms)
            assert np.array_equal(values, want_v)
            assert np.array_equal(grads, want_g)
            assert np.array_equal(basis.evaluate(points, atoms=atoms), want_v)
            assert np.array_equal(oracle_evaluate(basis, points, atoms), want_v)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(BASES)),
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 24),
        choice=st.integers(0, 4),
    )
    def test_columns_are_the_per_shell_loops_columns(self, name, seed, n_random, choice):
        basis = BASES[name]
        rng = np.random.default_rng(seed)
        points = _probe_points(basis, rng, n_random)
        atoms = _atom_choices(basis.structure.n_atoms, rng)[choice]
        subset = np.flatnonzero(rng.random(basis.n_basis) < 0.5)
        for cols in (np.arange(0), np.arange(basis.n_basis), subset):
            want_v, want_g = oracle_evaluate_with_gradients(basis, points, atoms, cols)
            values, grads = basis.evaluate_with_gradients(points, atoms=atoms, cols=cols)
            assert values.shape == (points.shape[0], cols.size)
            assert grads.shape == (3, points.shape[0], cols.size)
            assert np.array_equal(values, want_v) and np.array_equal(grads, want_g)
            assert np.array_equal(basis.evaluate(points, atoms=atoms, cols=cols), want_v)
            assert np.array_equal(oracle_evaluate(basis, points, atoms, cols), want_v)
            if atoms is not None:  # columns of atoms not asked for: exact zeros
                absent = ~np.isin(basis.function_atoms[cols], atoms)
                assert not values[:, absent].any() and not grads[:, :, absent].any()

    def test_gradient_components_are_contiguous(self, rng):
        basis = BASES["water"]
        cols = np.array([0, 3, 4, 12])
        _, grads = basis.evaluate_with_gradients(rng.normal(size=(9, 3)), cols=cols)
        assert all(component.flags.c_contiguous for component in grads)

    def test_edge_points_do_what_they_should(self):
        basis = BASES["water"]
        inst = shell_instances(basis)[0]  # O 1s: ends where its table is ~1e-8, not 0
        at_cutoff = inst.center + [inst.cutoff, 0.0, 0.0]
        just_past = inst.center + [np.nextafter(inst.cutoff, np.inf), 0.0, 0.0]
        values = basis.evaluate(np.vstack([at_cutoff, just_past]), atoms=[inst.atom])
        assert values[0, inst.first_index] != 0.0
        assert values[1, inst.first_index] == 0.0
        _, grads = basis.evaluate_with_gradients(basis.structure.coords)
        assert np.all(np.isfinite(grads))  # rhat is safe on a nucleus
        far = basis.structure.coords[0] + 60.0
        assert not basis.evaluate(far).any()

    def test_shapes_for_empty_and_single_points(self):
        basis = BASES["h2"]
        assert basis.evaluate(np.zeros((0, 3))).shape == (0, basis.n_basis)
        values, grads = basis.evaluate_with_gradients(np.zeros(3))
        assert values.shape == (1, basis.n_basis)
        assert grads.shape == (3, 1, basis.n_basis)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_views_dense_and_screened(self, name, minimal_settings):
        basis = BASES[name]
        grid = build_grid(STRUCTURES[name], minimal_settings.grids, with_partition=True)
        builder = MatrixBuilder(
            basis, grid, screening_threshold=DEFAULT_SCREENING_THRESHOLD
        )
        _assert_views_match_oracle(builder)

    def test_views_of_the_26_chain(self, chain26):
        basis, grid, _ = chain26
        builder = MatrixBuilder(
            basis, grid, screening_threshold=DEFAULT_SCREENING_THRESHOLD
        )
        assert len(builder.batches) == 256
        _assert_views_match_oracle(builder)

    @pytest.mark.parametrize(
        "atoms,species", [(None, 2), ([0], 1), ([1, 2], 1), ([2, 0, 2], 2), ([], 0)]
    )
    def test_one_interval_lookup_per_species(self, atoms, species, monkeypatch, rng):
        calls = []
        locate = SplineSystem.locate
        monkeypatch.setattr(
            SplineSystem, "locate", lambda self, t: calls.append(1) or locate(self, t)
        )
        basis = BASES["water"]  # O, H, H
        points = rng.normal(size=(17, 3))
        basis.evaluate(points, atoms=atoms)
        assert len(calls) <= species
        del calls[:]
        basis.evaluate_with_gradients(points, atoms=atoms)
        assert len(calls) <= species


def _assert_views_match_oracle(builder):
    """Every batch's chi and grad chi equal the per-shell loop's, a dense
    view's block is its batches' blocks stacked and cut to its columns,
    and every screened view's block is a column slice of the dense ones —
    each member batch's padding (the view's columns outside its own set)
    exactly zero."""
    basis, points = builder.basis, builder.grid.points
    dense = np.zeros((builder.grid.n_points, basis.n_basis))
    for batch in builder.batches:
        pts = points[batch.point_indices]
        want_v, want_g = oracle_evaluate_with_gradients(basis, pts, batch.relevant_atoms)
        values, grads = basis.evaluate_with_gradients(pts, atoms=batch.relevant_atoms)
        assert np.array_equal(values, want_v) and np.array_equal(grads, want_g)
        dense[batch.point_indices] = want_v
    assert builder.views.screened
    for views in (build_batch_views(builder.batches, basis), builder.views):
        for view in views:
            want = dense[view.point_indices][:, view.cols]
            for lo, hi, pad in zip(view.bounds, view.bounds[1:], view.padding):
                want[lo:hi, pad] = 0.0
            assert np.array_equal(builder.evaluate_view(view), want)


# ----------------------------------------------------------------------
# Matrices and observables, given the same grid weights
# ----------------------------------------------------------------------
def _matrices(basis, grid, threshold):
    builder = MatrixBuilder(basis, grid, screening_threshold=threshold)
    return (
        builder.overlap(), builder.kinetic(),
        builder.nuclear_attraction(), builder.dipole_matrices(),
    )


class TestMatricesBitExact:
    """S, T, V_ext and D through the per-shell loop vs the stacked
    evaluator, on one grid: bit for bit, dense and screened."""

    def _compare(self, basis, grid, monkeypatch, thresholds):
        for threshold in thresholds:
            got = _matrices(basis, grid, threshold)
            with monkeypatch.context() as patch:
                patch.setattr(BasisSet, "evaluate", oracle_evaluate)
                patch.setattr(
                    BasisSet, "evaluate_with_gradients", oracle_evaluate_with_gradients
                )
                want = _matrices(basis, grid, threshold)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["h2", "water"])
    def test_small_molecules(self, name, minimal_settings, monkeypatch):
        grid = _pinned_grid(STRUCTURES[name], minimal_settings.grids)
        self._compare(
            BASES[name], grid, monkeypatch, (0.0, DEFAULT_SCREENING_THRESHOLD)
        )

    def test_the_26_chain(self, chain26, minimal_settings, monkeypatch):
        basis, grid, oracle_weights = chain26
        pinned = _pinned_grid(grid.structure, minimal_settings.grids, oracle_weights)
        self._compare(basis, pinned, monkeypatch, (0.0,))  # 5 s a threshold


class TestObservablesUnmoved:
    """The weights move by ~1e-16; energies and polarizabilities must
    stay within 1e-10 Ha / 1e-8 relative of the per-pair loop's."""

    def test_water_total_energy(self, water_ground_state, minimal_settings):
        structure = water()
        pinned = SCFDriver(
            structure, minimal_settings,
            grid=_pinned_grid(structure, minimal_settings.grids),
        ).run()
        assert abs(pinned.total_energy - water_ground_state.total_energy) < 1e-10

    def test_h2_energy_and_polarizability(self, minimal_settings):
        structure = hydrogen_molecule()
        ours = drain(iter_physics(structure, minimal_settings))
        substrate = build_substrate(structure, minimal_settings.grids)
        substrate.grid.partition_weights = oracle_partition_weights(substrate.grid)
        theirs = drain(iter_physics(structure, minimal_settings, substrate=substrate))
        assert abs(
            ours.ground_state.total_energy - theirs.ground_state.total_energy
        ) < 1e-10
        scale = np.abs(theirs.polarizability).max()
        assert np.abs(ours.polarizability - theirs.polarizability).max() < 1e-8 * scale


# ----------------------------------------------------------------------
# Becke weights
# ----------------------------------------------------------------------
def _lattice(n_side, spacing=3.0):
    """``n_side^3`` hydrogens on a cubic lattice: all within the partner
    cutoff of each other for ``n_side = 4``."""
    axis = spacing * np.arange(n_side)
    coords = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return Structure(["H"] * len(coords), coords)


class TestBeckeWeightsAllPairs:
    @pytest.mark.parametrize("name", ["h2", "water"])  # water: heteronuclear shift
    def test_close_to_the_pair_loop(self, name, minimal_settings):
        grid = build_grid(STRUCTURES[name], minimal_settings.grids, with_partition=True)
        assert np.allclose(
            grid.partition_weights, oracle_partition_weights(grid),
            atol=WEIGHT_ATOL, rtol=0.0,
        )

    def test_close_to_the_pair_loop_on_the_26_chain(self, chain26):
        _, grid, oracle_weights = chain26
        assert np.allclose(
            grid.partition_weights, oracle_weights, atol=WEIGHT_ATOL, rtol=0.0
        )
        assert grid.partition_weights.min() >= 0.0
        assert grid.partition_weights.max() <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(STRUCTURES)),
        seed=st.integers(0, 2**32 - 1),
        smoothing=st.integers(1, 4),
    )
    def test_random_points_any_owner(self, name, seed, smoothing):
        structure = STRUCTURES[name]
        rng = np.random.default_rng(seed)
        owner = int(rng.integers(structure.n_atoms))
        lo, hi = structure.bounding_box(padding=3.0)
        points = np.vstack([rng.uniform(lo, hi, size=(30, 3)), structure.coords])
        assert np.allclose(
            becke_weights(structure, points, owner, smoothing=smoothing),
            oracle_becke_weights(structure, points, owner, smoothing=smoothing),
            atol=WEIGHT_ATOL, rtol=0.0,
        )

    def test_bitwise_independent_of_the_chunk_size(self, monkeypatch, rng):
        structure = STRUCTURES["polyethylene2"]
        points = structure.coords[3] + rng.normal(size=(257, 3)) * 2.0
        whole = becke_weights(structure, points, 3)
        monkeypatch.setattr(partition, "_CHUNK_ELEMENTS", 1)  # one point a chunk
        assert np.array_equal(becke_weights(structure, points, 3), whole)
        monkeypatch.setattr(partition, "_CHUNK_ELEMENTS", 7 * 14 * 14)
        assert np.array_equal(becke_weights(structure, points, 3), whole)

    def test_lone_atom_weights_are_exactly_one(self, rng):
        lone = hydrogen_molecule().subset([0])
        weights = becke_weights(lone, rng.normal(size=(5, 3)), 0)
        assert weights.tolist() == [1.0] * 5

    def test_temporaries_stay_within_the_chunk_budget(self, rng):
        structure = _lattice(4)
        assert structure.neighbors_within(0, partition.PARTNER_CUTOFF).size == 63
        points = rng.uniform(-2.0, 11.0, size=(2000, 3))
        becke_weights(structure, points[:8], 0)  # imports, caches
        tracemalloc.start()
        try:
            becke_weights(structure, points, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Unchunked, one (2000, 64, 64) temporary alone is 65.5 MB.
        assert peak < 4 * 8 * partition._CHUNK_ELEMENTS


# ----------------------------------------------------------------------
# One spelling of "this atom's points"
# ----------------------------------------------------------------------
class TestAtomSlices:
    def test_slices_are_the_atom_index_masks(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        assert len(grid.atom_slices) == 3
        for atom, own in enumerate(grid.atom_slices):
            mask = np.nonzero(grid.atom_index == atom)[0]
            assert np.array_equal(np.arange(own.start, own.stop), mask)
            assert np.array_equal(grid.points_of_atom(atom), mask)

    def test_a_grid_out_of_atom_order_is_refused(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        grid.atom_index = grid.atom_index[::-1].copy()
        with pytest.raises(GridError, match="atom-major"):
            grid.atom_slices
