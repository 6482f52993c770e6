"""Execution-backend seam: bit-exact parity, kept blocks, profiles, the bill.

The acceptance bar of the backend seam is *bitwise* equality — not
``allclose`` — between the host engine's cache regimes for every phase
operation, end to end through SCF and CPSCF.  The backend-free per-batch
``reference_*`` seam sums in another order and is held to 1e-13 of each
array's largest entry.  A device is a bill on a finished run's profile
(:func:`repro.backends.device.device_bill`), priced by the scale model's
own kernels.
"""

import dataclasses
import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import Structure, hydrogen_molecule, water
from repro.backends import (
    DEFAULT_CACHE_BYTES,
    Factored,
    BackendProfile,
    BatchedBackend,
    device_bill,
)
from repro.basis import build_basis
from repro.config import RunSettings, get_settings
from repro.core.phasemodel import grid_kernel, points_ndrange
from repro.dfpt.response import DFPTSolver
from repro.dft import SCFDriver
from repro.dft.hamiltonian import MatrixBuilder
from repro.errors import BackendError, DeviceError, GridError
from repro.grids import build_batches, build_grid
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.ocl.device import Device
from repro.runtime.machines import HPC2_AMD, machine_by_name
from tests.setup_oracles import assert_close_at_scale

#: Builders compared against the default (warm) host engine: the same
#: engine with a zero cache budget.
OTHERS = ("cold",)


@pytest.fixture(scope="module", params=["h2", "water"])
def substrate(request, minimal_settings):
    """(basis, grid) for one molecule, built once per module."""
    structure = hydrogen_molecule() if request.param == "h2" else water()
    basis = build_basis(structure)
    grid = build_grid(structure, minimal_settings.grids, with_partition=True)
    return basis, grid


@pytest.fixture(scope="module")
def builders(substrate):
    """One MatrixBuilder per engine, sharing the same batch list."""
    basis, grid = substrate
    reference = MatrixBuilder(basis, grid, backend="numpy")
    out = {"numpy": reference}
    out["cold"] = MatrixBuilder(
        basis, grid, batches=reference.batches,
        backend=BatchedBackend(max_cache_bytes=0),
    )
    return out


class TestPhaseParity:
    """Warm host / cold host must agree to the last bit."""

    def test_overlap_bit_identical(self, builders):
        s_ref = builders["numpy"].overlap()
        for name in OTHERS:
            assert np.array_equal(s_ref, builders[name].overlap()), name

    def test_kinetic_bit_identical(self, builders):
        t_ref = builders["numpy"].kinetic()
        for name in OTHERS:
            assert np.array_equal(t_ref, builders[name].kinetic()), name

    def test_nuclear_attraction_bit_identical(self, builders):
        v_ref = builders["numpy"].nuclear_attraction()
        for name in OTHERS:
            assert np.array_equal(v_ref, builders[name].nuclear_attraction()), name

    def test_potential_matrix_bit_identical(self, builders, rng):
        v = rng.normal(size=builders["numpy"].grid.n_points)
        m_ref = builders["numpy"].potential_matrix(v)
        for name in OTHERS:
            assert np.array_equal(m_ref, builders[name].potential_matrix(v)), name
        # The backend-free per-batch reference sums in another order; on
        # a dense builder both sides of its seam are the same derivation.
        for screened in (True, False):
            ref = builders["numpy"].reference_potential_matrix(v, screened=screened)
            assert_close_at_scale(m_ref, ref)

    def test_dipoles_bit_identical(self, builders):
        d_ref = builders["numpy"].dipole_matrices()
        for name in OTHERS:
            assert np.array_equal(d_ref, builders[name].dipole_matrices()), name

    def test_density_bit_identical(self, builders, rng):
        nb = builders["numpy"].basis.n_basis
        p = rng.normal(size=(nb, nb))
        p = p + p.T
        n_ref = builders["numpy"].backend.density_on_grid(p)
        for name in OTHERS:
            assert np.array_equal(n_ref, builders[name].backend.density_on_grid(p)), name
        for screened in (True, False):
            ref = builders["numpy"].reference_density(p, screened=screened)
            assert_close_at_scale(n_ref, ref)

    def test_first_order_dm_bit_identical(self, builders, rng):
        nb = builders["numpy"].basis.n_basis
        n_occ = max(1, nb // 4)
        n_virt = nb - n_occ
        h1 = rng.normal(size=(nb, nb))
        h1 = h1 + h1.T
        c = rng.normal(size=(nb, nb))
        args = (
            h1,
            rng.normal(size=(n_virt, n_occ)),
            c[:, :n_occ],
            c[:, n_occ:],
            np.full(n_occ, 2.0),
        )
        ref = builders["numpy"].backend.first_order_dm(*args)
        for name in OTHERS:
            out = builders[name].backend.first_order_dm(*args)
            for a, b in zip(ref, out):
                assert np.array_equal(a, b), name


class TestKWideSeams:
    """Sumup and H take k densities / potentials through the same seam:
    k = 1 is the one-dimensional call to the bit, and every engine stays
    bitwise equal to every other on k-wide calls."""

    K = 3

    @staticmethod
    def _factors(builder, rng, k):
        nb = builder.basis.n_basis
        n_occ = max(1, nb // 5)
        return rng.normal(size=(k, nb, n_occ)), rng.normal(size=(nb, n_occ))

    def test_one_column_is_the_one_dimensional_call(self, builders, rng):
        backend = builders["numpy"].backend
        x, c = self._factors(builders["numpy"], rng, 1)
        v = rng.normal(size=builders["numpy"].grid.n_points)
        assert np.array_equal(
            backend.density_on_grid(Factored(x, c))[:, 0], backend.density_on_grid(Factored(x[0], c))
        )
        assert np.array_equal(backend.potential_matrix(v[:, None])[0], backend.potential_matrix(v))

    def test_engines_agree_bitwise_on_k_wide_calls(self, builders, rng):
        x, c = self._factors(builders["numpy"], rng, self.K)
        v = rng.normal(size=(builders["numpy"].grid.n_points, self.K))
        n_ref = builders["numpy"].backend.density_on_grid(Factored(x, c))
        h_ref = builders["numpy"].backend.potential_matrix(v)
        assert n_ref.shape == v.shape and h_ref.shape == (self.K, *builders["numpy"].overlap().shape)
        for name in OTHERS:
            backend = builders[name].backend
            assert np.array_equal(n_ref, backend.density_on_grid(Factored(x, c))), name
            assert np.array_equal(h_ref, backend.potential_matrix(v)), name

    def test_k_wide_calls_match_column_by_column(self, builders, rng):
        backend = builders["numpy"].backend
        x, c = self._factors(builders["numpy"], rng, self.K)
        v = rng.normal(size=(builders["numpy"].grid.n_points, self.K))
        n_wide, h_wide = backend.density_on_grid(Factored(x, c)), backend.potential_matrix(v)
        for j in range(self.K):
            assert_close_at_scale(n_wide[:, j], backend.density_on_grid(Factored(x[j], c)))
            assert np.array_equal(h_wide[j], backend.potential_matrix(v[:, j]))

    def test_a_k_wide_call_is_one_call_of_k_times_the_elements(self, builders, rng):
        builder = builders["numpy"]
        x, c = self._factors(builder, rng, self.K)
        v = rng.normal(size=(builder.grid.n_points, self.K))
        phases = builder.backend.profile.phases
        before = {p: (phases[p].calls, phases[p].elements) for p in ("Sumup", "H") if p in phases}
        builder.backend.density_on_grid(Factored(x, c))
        builder.backend.potential_matrix(v)
        for phase in ("Sumup", "H"):
            calls, elements = before.get(phase, (0, 0))
            assert phases[phase].calls - calls == 1
            assert phases[phase].elements - elements == self.K * builder.views.elements

    def test_device_prices_a_k_wide_call_as_one_launch_of_k_times_the_items(
        self, builders, rng
    ):
        """The bill of a k-wide Sumup or H is one launch carrying k times
        the work and the bytes of a one-wide call."""
        reference = builders["numpy"]
        x, c = self._factors(reference, rng, self.K)
        v = rng.normal(size=(reference.grid.n_points, self.K))

        def billed(density, potential):
            builder = MatrixBuilder(
                reference.basis, reference.grid, batches=reference.batches
            )
            builder.backend.density_on_grid(density)
            builder.backend.potential_matrix(potential)
            return device_bill(builder.backend.profile)

        one = billed(Factored(x[0], c), v[:, 0])
        wide = billed(Factored(x, c), v)
        assert one.launches == wide.launches == 2
        staged = 8 * reference.grid.n_points * (reference.basis.n_basis + 1)
        moved = (one.bytes_transferred - staged, wide.bytes_transferred - staged)
        assert moved[1] == self.K * moved[0] > 0
        overhead = HPC2_AMD.accelerator.kernel_launch_overhead
        for phase in ("Sumup", "H"):
            assert wide.phases[phase] - overhead == pytest.approx(
                self.K * (one.phases[phase] - overhead), rel=1e-12
            )

    def test_hostile_k_wide_inputs_are_refused(self, builders, rng):
        backend = builders["numpy"].backend
        x, c = self._factors(builders["numpy"], rng, self.K)
        n = builders["numpy"].grid.n_points
        for bad in (
            Factored(x[:0], c),  # k = 0
            Factored(x),  # k lefts need the shared right
            Factored(x[:, :-1], c[:-1]),  # wrong basis size
            Factored(x, c[:, :-1]),  # lefts shaped unlike the right
            Factored(x[..., None], c),  # 4-D
        ):
            with pytest.raises(ValueError, match="density factors"):
                backend.density_on_grid(bad)
        poisoned = x.copy()
        poisoned[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            backend.density_on_grid(Factored(poisoned, c))
        for bad in (np.ones((n, 0)), np.ones((n, 1, 1)), np.ones((n - 1, self.K))):
            with pytest.raises(GridError, match="potential samples"):
                backend.potential_matrix(bad)
        v = np.ones((n, self.K))
        v[3, 2] = np.inf
        with pytest.raises(GridError, match="non-finite"):
            backend.potential_matrix(v)


class TestEndToEndParity:
    """Whole SCF + CPSCF trajectories must be bit-identical per cache regime."""

    @pytest.fixture(scope="class")
    def per_backend_runs(self, minimal_settings):
        out = {}
        for name, backend in (("numpy", None), ("cold", BatchedBackend(max_cache_bytes=0))):
            gs = SCFDriver(hydrogen_molecule(), minimal_settings, backend=backend).run()
            solver = DFPTSolver(gs, minimal_settings.cpscf)
            alpha = np.empty((3, 3))
            for j in range(3):
                alpha[:, j] = solver.solve_direction(j).polarizability_column(
                    gs.dipoles
                )
            out[name] = (gs, alpha)
        return out

    def test_total_energy_bit_identical(self, per_backend_runs):
        e_ref = per_backend_runs["numpy"][0].total_energy
        assert per_backend_runs["cold"][0].total_energy == e_ref

    def test_density_matrix_bit_identical(self, per_backend_runs):
        p_ref = per_backend_runs["numpy"][0].density_matrix
        assert np.array_equal(
            p_ref, per_backend_runs["cold"][0].density_matrix
        )

    def test_polarizability_bit_identical(self, per_backend_runs):
        a_ref = per_backend_runs["numpy"][1]
        assert np.array_equal(a_ref, per_backend_runs["cold"][1])

    def test_solver_inherits_ground_state_backend(self, minimal_settings):
        engine = BatchedBackend(max_cache_bytes=0)
        gs = SCFDriver(hydrogen_molecule(), minimal_settings, backend=engine).run()
        solver = DFPTSolver(gs, minimal_settings.cpscf)
        assert solver.backend is gs.builder.backend is engine

    def test_settings_select_backend(self, minimal_settings):
        """The settings name no backend (the field is retired): a driver
        given settings alone runs the one host engine."""
        assert "backend" not in {f.name for f in dataclasses.fields(RunSettings)}
        driver = SCFDriver(hydrogen_molecule(), minimal_settings)
        assert type(driver.backend) is BatchedBackend
        assert driver.backend.name == "numpy"


def _h_chain(n_atoms=5):
    """A short H chain — elongated enough that screening drops blocks."""
    coords = np.zeros((n_atoms, 3))
    coords[:, 0] = 3.0 * np.arange(n_atoms)
    return Structure(["H"] * n_atoms, coords, name=f"h{n_atoms}-chain")


def _probe(builder, seed=0):
    rng = np.random.default_rng(seed)
    nb = builder.basis.n_basis
    p = rng.normal(size=(nb, nb))
    return p + p.T, rng.normal(size=builder.grid.n_points)


class TestParityUnderBatchAndCacheVariation:
    @given(
        target_points=st.integers(min_value=16, max_value=200),
        budget=st.sampled_from([0, 4096, "table", None]),
        threshold=st.sampled_from([0.0, DEFAULT_SCREENING_THRESHOLD]),
    )
    @hsettings(max_examples=8, deadline=None)
    def test_hypothesis_parity(self, target_points, budget, threshold):
        """Every cache regime of the one host engine is bitwise every
        other and itself run to run, within summation order of the
        backend-free reference, and a cached block is bitwise the slice
        of the dense table."""
        chain = _h_chain()
        settings = get_settings("minimal")
        basis = build_basis(chain)
        grid = build_grid(chain, settings.grids, with_partition=True)
        if budget == "table":
            budget = 8 * grid.n_points * basis.n_basis
        builder = MatrixBuilder(
            basis,
            grid,
            batches=build_batches(grid, target_points=target_points),
            backend=BatchedBackend(max_cache_bytes=budget),
            screening_threshold=threshold,
        )
        backend = builder.backend
        p, v = _probe(builder, seed=target_points)
        default = MatrixBuilder(
            basis, grid, batches=builder.batches, screening_threshold=threshold
        )
        want_n = default.backend.density_on_grid(p)
        want_m = default.potential_matrix(v)
        assert_close_at_scale(want_n, builder.reference_density(p))
        assert_close_at_scale(want_m, builder.reference_potential_matrix(v))
        # Twice: the second pass exercises cache hits.
        for _ in range(2):
            assert np.array_equal(backend.density_on_grid(p), want_n)
            assert np.array_equal(builder.potential_matrix(v), want_m)
        table = builder.basis_values()
        for view in builder.views:
            assert np.array_equal(
                table[view.point_indices][:, view.cols], backend.basis_block(view)
            )


class TestCacheRegimes:
    """Exact counters of the one host engine, per cache regime."""

    N_SWEEPS = 3

    @pytest.fixture(params=[0.0, DEFAULT_SCREENING_THRESHOLD], ids=["dense", "screened"])
    def chain_builder(self, request, minimal_settings):
        chain = _h_chain()
        basis = build_basis(chain)
        grid = build_grid(chain, minimal_settings.grids, with_partition=True)

        def build(backend):
            builder = MatrixBuilder(
                basis, grid, backend=backend, screening_threshold=request.param
            )
            if request.param:  # compact blocks: narrower than the whole basis
                assert builder.views.elements < grid.n_points * basis.n_basis
            return builder

        return build

    def _sweeps(self, builder):
        p, v = _probe(builder)
        for _ in range(self.N_SWEEPS):
            builder.backend.density_on_grid(p)
            builder.potential_matrix(v)

    @pytest.mark.parametrize("budget", ["table", None], ids=["table", "default"])
    def test_budget_covering_the_table_evaluates_each_view_once(
        self, chain_builder, budget, monkeypatch
    ):
        probe = chain_builder("numpy")
        if budget == "table":
            budget = 8 * probe.grid.n_points * probe.basis.n_basis
        builder = chain_builder(BatchedBackend(max_cache_bytes=budget))
        self._sweeps(builder)
        profile = builder.backend.profile
        n_views = len(builder.views)
        # The basis row counts batches (the priced unit), the cache views.
        assert profile.phases["basis"].calls == builder.views.n_batches
        assert profile.cache_misses == n_views
        assert profile.cache_hits == (2 * self.N_SWEEPS - 1) * n_views
        # The cache holds every view's block, each the priced entries of its
        # members (fewer when dense: zero columns are dropped) plus the
        # merge padding.
        held = sum(v.point_indices.size * v.cols.size for v in builder.views)
        assert profile.cache_peak_bytes == 8 * held
        assert held <= builder.views.elements + sum(
            v.padded_elements for v in builder.views
        )

        def no_evaluate(*args, **kwargs):
            raise AssertionError("basis.evaluate called with a warm cache")

        monkeypatch.setattr(builder.basis, "evaluate", no_evaluate)
        self._sweeps(builder)

    def test_budget_under_the_views_keeps_a_fixed_resident_set(
        self, chain_builder, monkeypatch
    ):
        """Over the budget the views that fit, first fit in sweep order,
        stay resident: never evicted, hit on every later pass, while the
        rest are evaluated on each one."""
        views = list(chain_builder("numpy").views)
        sizes = [8 * v.point_indices.size * v.cols.size for v in views]
        budget = sum(sizes) // 2
        free, resident = budget, []
        for view, size in zip(views, sizes):
            if size <= free:
                free, resident = free - size, resident + [view]
        n_views, n_resident, passes = len(views), len(resident), 2 * self.N_SWEEPS
        assert 0 < n_resident < n_views
        builder = chain_builder(BatchedBackend(max_cache_bytes=budget))
        self._sweeps(builder)
        profile = builder.backend.profile
        assert profile.cache_misses == n_views + (passes - 1) * (n_views - n_resident)
        assert profile.cache_hits == (passes - 1) * n_resident
        assert profile.cache_peak_bytes == 8 * sum(
            v.point_indices.size * v.cols.size for v in resident
        )

        grid_points = builder.grid.points
        resident_points = {
            p.tobytes() for v in resident for p in grid_points[v.point_indices]
        }
        evaluate = builder.basis.evaluate

        def evaluate_non_resident(points, *args, **kwargs):
            if any(p.tobytes() in resident_points for p in points):
                raise AssertionError("basis.evaluate called for a resident view")
            return evaluate(points, *args, **kwargs)

        monkeypatch.setattr(builder.basis, "evaluate", evaluate_non_resident)
        self._sweeps(builder)
        assert profile.cache_misses == n_views + (2 * passes - 1) * (n_views - n_resident)
        assert profile.cache_hits == (2 * passes - 1) * n_resident

    def test_zero_budget_evaluates_every_view_every_pass(self, chain_builder):
        builder = chain_builder(BatchedBackend(max_cache_bytes=0))
        self._sweeps(builder)
        profile = builder.backend.profile
        lookups = 2 * self.N_SWEEPS * len(builder.views)
        assert profile.phases["basis"].calls == 2 * self.N_SWEEPS * builder.views.n_batches
        assert profile.cache_misses == lookups and profile.cache_hits == 0
        # A block larger than the whole budget is never kept.
        assert len(builder.backend.blocks) == 0

    def test_default_backend_is_the_default_budget(self, chain_builder):
        builder = chain_builder("numpy")
        assert isinstance(builder.backend, BatchedBackend)
        assert builder.backend.max_cache_bytes == DEFAULT_CACHE_BYTES == 320_000_000
        assert builder.backend.profile.cache_max_bytes == DEFAULT_CACHE_BYTES

    def test_basis_values_is_a_plain_uncached_assembly(self, chain_builder):
        """No limit, no warning, nothing held: each call assembles the
        dense table afresh and never touches the engine's cache."""
        builder = chain_builder(BatchedBackend(max_cache_bytes=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, second = builder.basis_values(), builder.basis_values()
        assert first is not second and np.array_equal(first, second)
        assert first.shape == (builder.grid.n_points, builder.basis.n_basis)
        assert "basis" not in builder.backend.profile.phases


class TestBlockCache:
    """The kept blocks: the resident views' only, within the budget."""

    @pytest.fixture
    def chain_builder(self, minimal_settings):
        structure = _h_chain()
        basis = build_basis(structure)
        grid = build_grid(structure, minimal_settings.grids, with_partition=True)
        return lambda budget: MatrixBuilder(
            basis, grid, backend=BatchedBackend(max_cache_bytes=budget)
        )

    def test_hit_miss_counters(self, chain_builder):
        builder = chain_builder(None)
        view = next(iter(builder.views))
        first = builder.backend.basis_block(view)
        assert builder.backend.basis_block(view) is first
        profile = builder.backend.profile
        assert (profile.cache_hits, profile.cache_misses) == (1, 1)

    def test_byte_bound_respected(self, chain_builder):
        full = chain_builder(None)
        budget = sum(8 * v.point_indices.size * v.cols.size for v in full.views) // 2
        builder = chain_builder(budget)
        for _ in range(2):
            for view in builder.views:
                builder.backend.basis_block(view)
        kept = sum(block.nbytes for block in builder.backend.blocks.values())
        assert 0 < kept == builder.backend.profile.cache_peak_bytes <= budget

    def test_oversized_block_is_never_kept(self, chain_builder):
        builder = chain_builder(0)
        for view in builder.views:
            builder.backend.basis_block(view)
        assert builder.backend.blocks == {}
        assert builder.backend.profile.cache_peak_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(BackendError):
            BatchedBackend(max_cache_bytes=-1)


class TestBackendProfile:
    def test_phase_counters(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2),
            build_grid(h2, minimal_settings.grids, with_partition=True),
            backend="numpy",
        )
        backend = builder.backend
        v = np.ones(builder.grid.n_points)
        builder.potential_matrix(v)
        nb = builder.basis.n_basis
        backend.density_on_grid(np.eye(nb))
        profile = backend.profile
        assert profile.phases["H"].calls == 1
        assert profile.phases["Sumup"].calls == 1
        expected = builder.grid.n_points * nb
        assert profile.phases["H"].elements == expected
        assert profile.phases["Sumup"].elements == expected
        assert profile.phases["H"].seconds >= 0.0
        # Second Sumup pass hits the block cache instead of re-evaluating.
        evaluations = profile.phases["basis"].calls
        backend.density_on_grid(np.eye(nb))
        assert profile.phases["basis"].calls == evaluations
        assert profile.cache_hits > 0
        assert profile.cache_peak_bytes <= profile.cache_max_bytes + (
            max(b.n_points for b in builder.batches) * nb * 8
        )

    @pytest.mark.parametrize("machine", ["hpc1", "hpc2"])
    def test_device_launch_accounting(self, minimal_settings, machine):
        """The bill launches each Sumup / H call once, on *machine*'s
        accelerator; before any call it holds only the staged tables."""
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2),
            build_grid(h2, minimal_settings.grids, with_partition=True),
        )
        profile = builder.backend.profile
        staged = device_bill(profile, machine)
        assert (staged.launches, staged.modeled_seconds) == (0, 0.0)
        assert staged.bytes_transferred > 0
        h = builder.potential_matrix(np.ones(builder.grid.n_points))
        assert np.allclose(h, h.T)
        bill = device_bill(profile, machine)
        assert bill.launches == 1 and bill.phases["H"] > 0.0
        assert bill.machine == machine_by_name(machine).name

    def test_device_reads_the_host_engines_blocks(self, substrate):
        """The device is a price on the host engine's run: billing reads
        the profile alone — no block evaluated, no counter moved — and the
        profile's JSON snapshot bills the same as the live profile."""
        basis, grid = substrate
        builder = MatrixBuilder(basis, grid)
        for _ in range(2):
            builder.backend.density_on_grid(np.eye(basis.n_basis))
            builder.potential_matrix(np.ones(grid.n_points))
        profile = builder.backend.profile
        snapshot = json.dumps(profile.as_dict(), sort_keys=True)
        bill = device_bill(profile)
        assert json.dumps(profile.as_dict(), sort_keys=True) == snapshot
        assert device_bill(json.loads(snapshot)) == bill
        assert profile.cache_hits > 0 and profile.cache_misses > 0

    def test_device_charges_its_staged_tables_and_phase_buffers(self, substrate):
        """The basis table and the weights are staged once; a phase moves
        its input once and its output buffer twice (zeroed in, result
        out)."""
        basis, grid = substrate
        builder = MatrixBuilder(basis, grid)
        profile = builder.backend.profile
        nb, n_points = basis.n_basis, grid.n_points
        staged = 8 * n_points * (nb + 1)
        assert device_bill(profile).bytes_transferred == staged
        builder.backend.density_on_grid(np.eye(nb))
        sumup = 8 * nb * nb + 2 * 8 * n_points
        assert device_bill(profile).bytes_transferred == staged + sumup
        builder.potential_matrix(np.ones((n_points, 3)))
        h = 3 * (8 * n_points + 2 * 8 * nb * nb)
        bill = device_bill(profile)
        assert bill.bytes_transferred == staged + sumup + h
        assert bill.launches == 2

    def test_profile_as_dict_round_trip(self):
        profile = BackendProfile(backend="numpy")
        profile.record("H", elements=10, seconds=0.5)
        d = profile.as_dict()
        assert d["backend"] == "numpy"
        assert d["phases"]["H"] == {"calls": 1, "elements": 10, "seconds": 0.5}

    def test_format_backend_profile(self, minimal_settings):
        from repro.utils.reports import format_backend_profile

        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2),
            build_grid(h2, minimal_settings.grids, with_partition=True),
            backend="numpy",
        )
        builder.overlap()
        builder.overlap()
        profile = builder.backend.profile
        text = format_backend_profile(profile)
        assert "backend profile [numpy]" in text
        assert "H" in text and "block cache" in text
        assert "modeled" not in text and "device bill" not in text
        billed = format_backend_profile(profile, device_bill(profile))
        assert "modeled" in billed
        assert "device bill [HPC#2 (AMD MI50 GPUs)]: 2 launches" in billed


class TestDeviceLaunchSizing:
    """The bill sizes a Sumup / H launch by the scale model's rule: one
    work-group per batch, a work-item per point of the mean batch."""

    @pytest.fixture
    def launched(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2),
            build_grid(h2, minimal_settings.grids, with_partition=True),
        )
        builder.potential_matrix(np.ones(builder.grid.n_points))
        return builder, builder.backend.profile.as_dict()

    def test_real_batches_cover_every_batch(self, launched):
        builder, profile = launched
        views, n_points = builder.views, builder.grid.n_points
        ndrange = points_ndrange(n_points, views.n_batches)
        assert ndrange.n_groups == views.n_batches == len(builder.batches)
        kernel = grid_kernel("h1_integration", 3.0, views.elements / n_points)
        price = Device(HPC2_AMD.accelerator).estimate(kernel, ndrange).total_time
        assert device_bill(profile).phases["H"] == pytest.approx(price, rel=1e-14)

    def test_empty_batches_rejected(self, launched):
        _, profile = launched
        profile["grid"]["batches"] = 0
        with pytest.raises(DeviceError, match="NDRange must be positive"):
            device_bill(profile)


class TestRegistryAndValidation:
    """What drivers accept as ``backend=``: ``None`` or ``"numpy"`` (the
    one host engine) or an :class:`ExecutionBackend` instance."""

    @pytest.fixture
    def h2_substrate(self, minimal_settings):
        h2 = hydrogen_molecule()
        return build_basis(h2), build_grid(h2, minimal_settings.grids, with_partition=True)

    def test_available_backends(self, h2_substrate):
        for spec in (None, "numpy"):
            backend = MatrixBuilder(*h2_substrate, backend=spec).backend
            assert type(backend) is BatchedBackend and backend.name == "numpy"

    def test_unknown_name_raises(self, h2_substrate):
        for name in ("device", "cuda"):
            with pytest.raises(BackendError, match=f"unknown execution backend '{name}'"):
                MatrixBuilder(*h2_substrate, backend=name)

    def test_batched_is_not_a_registry_name(self, h2_substrate):
        """The class kept its name; the engine's name is ``numpy``."""
        with pytest.raises(BackendError, match="the one engine is 'numpy'"):
            MatrixBuilder(*h2_substrate, backend="batched")
        assert BatchedBackend.name == "numpy"

    def test_unbound_use_raises(self):
        with pytest.raises(BackendError, match="not bound"):
            BatchedBackend().density_on_grid(np.eye(2))

    def test_rebinding_to_other_builder_raises(self, minimal_settings):
        h2 = hydrogen_molecule()
        basis = build_basis(h2)
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        backend = BatchedBackend()
        first = MatrixBuilder(basis, grid, backend=backend)
        assert first.backend is backend
        with pytest.raises(BackendError, match="already bound"):
            MatrixBuilder(basis, grid, batches=first.batches, backend=backend)

    def test_instance_accepted_end_to_end(self, minimal_settings):
        backend = BatchedBackend(max_cache_bytes=0)
        driver = SCFDriver(hydrogen_molecule(), minimal_settings, backend=backend)
        assert driver.backend is backend
        gs = driver.run()
        assert backend.profile.cache_hits == 0 < backend.profile.cache_misses
        assert device_bill(backend.profile).launches > 0
        assert gs.total_energy < -1.0

    def test_a_backend_outliving_its_builder_says_so(self, h2_substrate):
        """The engine holds its builder weakly: the builder is freed by
        reference counting alone, and the orphaned engine names why it
        cannot run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            backend = MatrixBuilder(*h2_substrate).backend
            assert backend.builder is None
        finally:
            if enabled:
                gc.enable()
        with pytest.raises(BackendError, match="its builder is gone"):
            backend.density_on_grid(np.eye(2))

    def test_bad_spec_type_raises(self, minimal_settings):
        h2 = hydrogen_molecule()
        with pytest.raises(BackendError, match="execution backend 42; the one engine"):
            MatrixBuilder(
                build_basis(h2),
                build_grid(h2, minimal_settings.grids, with_partition=True),
                backend=42,
            )

    def test_shape_validation(self, builders):
        backend = builders["numpy"].backend
        with pytest.raises(ValueError, match="density matrix shape"):
            backend.density_on_grid(np.eye(backend.builder.basis.n_basis + 1))
        with pytest.raises(GridError, match="potential samples"):
            backend.potential_matrix(np.ones(7))
