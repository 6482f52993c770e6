"""Angular rules, radial shells, Becke partitioning, grids and batching."""

import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import hydrogen_molecule, polyethylene, rbd_like_protein, water
from repro.config import get_settings
from repro.core.workload import build_workload, synthetic_batches
from repro.errors import GridError
from repro.grids import (
    angular_rule,
    attach_relevant_atoms,
    becke_weights,
    build_batches,
    build_grid,
    cut_plane_partition,
    radial_shells_for_species,
)
from repro.grids.batching import BatchArrays, batch_arrays
from repro.mapping import atom_cutoffs_light
from tests.setup_oracles import rows_as_read, sphere_overlaps_oracle


class TestAngularRules:
    @pytest.mark.parametrize("n", [6, 14, 26, 50, 110, 194])
    def test_weights_sum_to_4pi(self, n):
        rule = angular_rule(n)
        assert rule.n_points >= n
        assert rule.weights.sum() == pytest.approx(4 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("n", [6, 14, 26, 50, 110])
    def test_points_on_unit_sphere(self, n):
        rule = angular_rule(n)
        assert np.allclose(np.linalg.norm(rule.points, axis=1), 1.0, atol=1e-12)

    def test_integrates_polynomials_exactly(self):
        # int x^2 dOmega = 4 pi / 3 (degree 2 <= any rule's exactness).
        for n in (6, 26, 50):
            rule = angular_rule(n)
            val = rule.integrate(rule.points[:, 0] ** 2)
            assert val == pytest.approx(4 * np.pi / 3, rel=1e-12)

    def test_integrate_shape_check(self):
        rule = angular_rule(6)
        with pytest.raises(GridError):
            rule.integrate(np.zeros(7))

    def test_bad_request(self):
        with pytest.raises(GridError):
            angular_rule(0)


class TestRadialShells:
    def test_monotone_positive_weights(self):
        s = radial_shells_for_species(8, 24)
        assert np.all(np.diff(s.r) > 0)
        assert np.all(s.weights > 0)
        assert s.r[-1] == pytest.approx(10.0)

    def test_heavier_species_get_more_shells(self):
        assert radial_shells_for_species(16, 24).n > radial_shells_for_species(1, 24).n

    def test_integrates_gaussian_moment(self):
        s = radial_shells_for_species(1, 60, r_outer=12.0)
        # int_0^inf e^{-r^2} r^2 dr = sqrt(pi)/4.
        val = np.sum(s.weights * np.exp(-s.r**2))
        assert val == pytest.approx(np.sqrt(np.pi) / 4, rel=1e-4)

    def test_validation(self):
        with pytest.raises(GridError):
            radial_shells_for_species(1, 3)
        with pytest.raises(GridError):
            radial_shells_for_species(1, 24, r_outer=-1.0)


class TestBeckeWeights:
    def test_single_atom_weight_is_one(self):
        h2 = hydrogen_molecule().subset([0])
        pts = np.array([[0.0, 0.0, 1.0]])
        assert becke_weights(h2, pts, 0)[0] == pytest.approx(1.0)

    def test_partition_of_unity(self, rng):
        w = water()
        pts = rng.normal(size=(40, 3)) * 1.5
        total = sum(becke_weights(w, pts, a) for a in range(3))
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_weight_near_own_nucleus_dominates(self):
        h2 = hydrogen_molecule()
        near0 = h2.coords[0] + np.array([[0.0, 0.0, -0.05]])
        assert becke_weights(h2, near0, 0)[0] > 0.99

    def test_midpoint_symmetric(self):
        h2 = hydrogen_molecule()
        mid = 0.5 * (h2.coords[0] + h2.coords[1])[None, :]
        w0 = becke_weights(h2, mid, 0)[0]
        w1 = becke_weights(h2, mid, 1)[0]
        assert w0 == pytest.approx(w1) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(GridError):
            becke_weights(water(), np.zeros((1, 3)), 5)
        with pytest.raises(GridError):
            becke_weights(water(), np.zeros((1, 3)), 0, smoothing=0)


class TestIntegrationGrid:
    def test_gaussian_integral(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids, with_partition=True)
        val = np.zeros(grid.n_points)
        for c in water().coords:
            val += np.exp(-((grid.points - c) ** 2).sum(axis=1))
        total = grid.integrate(val)
        assert total == pytest.approx(3 * np.pi**1.5, rel=2e-2)

    def test_weights_require_partition(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        with pytest.raises(GridError):
            _ = grid.weights
        grid.compute_partition_weights()
        assert grid.weights.shape == (grid.n_points,)

    def test_points_of_atom(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        counted = sum(len(grid.points_of_atom(a)) for a in range(3))
        assert counted == grid.n_points

    def test_angular_weight_shell_sum(self, minimal_settings):
        grid = build_grid(hydrogen_molecule(), minimal_settings.grids)
        sel = (grid.atom_index == 0) & (grid.shell_index == 3)
        assert grid.angular_weights[sel].sum() == pytest.approx(4 * np.pi, rel=1e-12)


class TestBatching:
    def test_partition_covers_exactly(self, rng):
        pts = rng.normal(size=(1000, 3))
        groups = cut_plane_partition(pts, 64)
        all_idx = np.concatenate(groups)
        assert sorted(all_idx.tolist()) == list(range(1000))
        assert all(len(g) <= 64 for g in groups)

    @given(n=st.integers(10, 400), target=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_partition_coverage_property(self, n, target):
        rng = np.random.default_rng(n * 1000 + target)
        pts = rng.normal(size=(n, 3))
        groups = cut_plane_partition(pts, target)
        got = np.sort(np.concatenate(groups))
        assert np.array_equal(got, np.arange(n))
        assert max(len(g) for g in groups) <= target

    def test_batches_spatially_compact(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        batches = build_batches(grid, target_points=100)
        # Batches are spatially compact: cut-plane groups must be far
        # tighter than random groups of the same size.
        rng = np.random.default_rng(0)
        cut_radii = []
        rand_radii = []
        for b in batches:
            pts = grid.points[b.point_indices]
            cut_radii.append(np.linalg.norm(pts - pts.mean(0), axis=1).mean())
            rnd = grid.points[rng.choice(grid.n_points, size=b.n_points, replace=False)]
            rand_radii.append(np.linalg.norm(rnd - rnd.mean(0), axis=1).mean())
        # Outer shells are intrinsically wide on this tiny molecule, so
        # the advantage is moderate but must be systematic.
        assert np.mean(cut_radii) < 0.8 * np.mean(rand_radii)
        assert np.median(cut_radii) < np.median(rand_radii)

    def test_batch_sizes_and_metadata(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        batches = build_batches(grid, target_points=128)
        assert all(1 <= b.n_points <= 128 for b in batches)
        assert all(len(b.owner_atoms) >= 1 for b in batches)

    def test_attach_relevant_atoms_superset_of_owners(self, minimal_settings):
        w = water()
        grid = build_grid(w, minimal_settings.grids)
        batches = build_batches(grid, target_points=128)
        cut = np.full(3, 9.0)
        batches = attach_relevant_atoms(batches, w, cut)
        for b in batches:
            assert set(b.owner_atoms) <= set(b.relevant_atoms)

    def test_celllist_matches_dense_path(self, minimal_settings):
        # One cell (water, real batches), a line of cells (602-atom chain)
        # and a 3-D cloud of them (protein, one summary batch per atom),
        # each held to the all-pairs oracle in slabs of rows.
        w = water()
        grid = build_grid(w, minimal_settings.grids)
        cases = [(w, build_batches(grid, target_points=128), np.full(3, 6.5))]
        for s, target in ((polyethylene(100), None), (rbd_like_protein(), 10**9)):
            batches = synthetic_batches(build_workload(s), target_points=target)
            cases.append((s, batches, atom_cutoffs_light(s)))
        for s, batches, cut in cases:
            attached = attach_relevant_atoms(batches, s, cut)
            centroids, radii = batch_arrays(batches)[1:3]
            for lo in range(0, len(batches), 512):
                rows = slice(lo, lo + 512)
                indptr, indices = sphere_overlaps_oracle(
                    centroids[rows], radii[rows], s.coords, cut
                )
                for b, a, z in zip(attached[rows], indptr, indptr[1:]):
                    assert b.relevant_atoms == tuple(indices[a:z].tolist())

    def test_batch_arrays_carried_equal_derived(self, minimal_settings):
        w = water()
        real = attach_relevant_atoms(
            build_batches(build_grid(w, minimal_settings.grids), target_points=128),
            w,
            np.full(3, 6.5),
        )
        cases = [real] + [
            synthetic_batches(build_workload(s)) for s in (polyethylene(100), rbd_like_protein())
        ]
        for carried in cases:
            assert carried.arrays is batch_arrays(carried)
            materialized = list(carried)  # no carried arrays: the derived path
            derived = batch_arrays(materialized)
            for name, a, b in zip(BatchArrays._fields, carried.arrays, derived):
                assert a.dtype == b.dtype, name
                if name not in ("rows", "indptr", "indices"):  # shared rows: read below
                    assert np.array_equal(a, b), name
            got, want = rows_as_read(carried.arrays), rows_as_read(derived)
            assert len(got) == len(want) == len(materialized)
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
            assert derived.rows.tolist() == list(range(len(materialized)))
            assert derived.points.tolist() == [b.n_points for b in materialized]
            assert all(
                b.relevant_atoms == tuple(derived.indices[lo:hi].tolist())
                for b, lo, hi in zip(materialized, derived.indptr, derived.indptr[1:])
            )
        # A carried copy on a list is a memo: once its length moves it is re-derived.
        stale = real.arrays
        real.append(real[0])
        fresh = batch_arrays(real)
        assert fresh is not stale and fresh.points.shape[0] == stale.points.shape[0] + 1
        assert fresh.points[-1] == real[0].n_points

    def test_batch_arrays_of_nothing(self):
        empty = batch_arrays([])
        assert [a.shape for a in empty] == [(0,), (0, 3), (0,), (0,), (1,), (0,)]
        assert empty.indptr.tolist() == [0]

    def test_summary_batches_hold_no_index_bytes(self):
        batches = synthetic_batches(build_workload(polyethylene(4)))
        for b in batches:
            idx = b.point_indices
            assert idx.dtype == np.int64 and idx.shape == (b.n_points,)
            assert idx.strides == (0,) and not idx.flags.writeable and not idx.any()

    def test_attach_edges(self):
        w = water()
        assert attach_relevant_atoms([], w, np.full(3, 6.5)) == []
        with pytest.raises(GridError, match="2 cutoffs for 3 atoms"):
            attach_relevant_atoms([], w, np.full(2, 6.5))

    def test_invalid_target(self, rng):
        with pytest.raises(GridError):
            cut_plane_partition(rng.normal(size=(10, 3)), 0)

    @pytest.mark.parametrize("target", [0, -5, 2.5])
    def test_invalid_summary_target(self, target):
        # 0 used to warn about a division by zero and -5 to pass silently, each
        # giving one batch per atom; 2.5 raised numpy's casting TypeError.
        s = polyethylene(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="target_points must be >= 1"):
                synthetic_batches(build_workload(s), target_points=target)

    def test_summary_batches_are_a_read_only_sequence(self):
        batches = synthetic_batches(build_workload(polyethylene(4)))
        n = len(batches)
        assert isinstance(batches, Sequence) and not hasattr(batches, "append")
        assert [b.index for b in batches] == list(range(n))
        assert [b.index for b in batches[2:9:3]] == [2, 5, 8]
        assert batches[-1].index == n - 1 and batches[np.int64(3)].index == 3
        assert batches[-1].relevant_atoms == batches[n - 1].relevant_atoms
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                batches[bad]
        with pytest.raises(TypeError):
            batches[0] = batches[1]
