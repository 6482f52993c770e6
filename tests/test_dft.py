"""DFT substrate: xc, Hartree solver, matrix builder, mixing, SCF."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import hydrogen_molecule, methane, polyethylene, water
from repro.basis import CubicSpline, build_basis, real_spherical_harmonics
from repro.config import get_settings
from repro.dft import (
    MatrixBuilder,
    MultipoleSolver,
    PulayMixer,
    SCFDriver,
    lda_exchange_correlation,
    lda_xc_kernel,
)
from repro.dft.hartree import adams_moulton_cumulative
from repro.errors import GridError, SCFConvergenceError
from repro.grids import build_grid
from repro.utils.linalg import density_matrix_from_orbitals, solve_generalized_eigenproblem

from .setup_oracles import assert_close_at_scale, oracle_stacked_product_potential


class TestXC:
    def test_exchange_known_value(self):
        # For n=1: ex = -(3/4)(3/pi)^(1/3).
        res = lda_exchange_correlation(np.array([1.0]))
        ex_expected = -(3.0 / 4.0) * (3.0 / np.pi) ** (1.0 / 3.0)
        assert res.exc[0] < ex_expected  # correlation adds negative energy
        assert res.exc[0] == pytest.approx(ex_expected, abs=0.1)

    def test_vxc_is_derivative_of_n_exc(self):
        n = np.linspace(0.01, 2.0, 50)
        res = lda_exchange_correlation(n)
        h = 1e-6 * n
        e_plus = lda_exchange_correlation(n + h).exc * (n + h)
        e_minus = lda_exchange_correlation(n - h).exc * (n - h)
        fd = (e_plus - e_minus) / (2 * h)
        assert np.allclose(res.vxc, fd, rtol=1e-5)

    def test_fxc_is_derivative_of_vxc(self):
        n = np.linspace(0.05, 1.0, 20)
        fxc = lda_xc_kernel(n)
        h = 1e-5 * n
        fd = (
            lda_exchange_correlation(n + h).vxc - lda_exchange_correlation(n - h).vxc
        ) / (2 * h)
        assert np.allclose(fxc, fd, rtol=1e-3)

    def test_zero_density_safe(self):
        res = lda_exchange_correlation(np.array([0.0, 1e-30]))
        assert np.all(res.exc == 0.0) and np.all(res.vxc == 0.0)
        assert np.all(lda_xc_kernel(np.array([0.0])) == 0.0)

    @given(n=st.floats(1e-8, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_xc_quantities_negative_for_positive_density(self, n):
        res = lda_exchange_correlation(np.array([n]))
        assert res.exc[0] < 0.0 and res.vxc[0] < 0.0


def _adams_moulton_loop(f, df):
    """The step-by-step recurrence ``adams_moulton_cumulative`` must reproduce."""
    g = f * df.reshape(-1, *([1] * (f.ndim - 1)))
    out = np.zeros_like(g)
    out[1] = (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3]) / 24.0
    out[2] = out[1] + (-g[0] + 13.0 * g[1] + 13.0 * g[2] - g[3]) / 24.0
    for k in range(3, g.shape[0]):
        out[k] = out[k - 1] + (
            9.0 * g[k] + 19.0 * g[k - 1] - 5.0 * g[k - 2] + g[k - 3]
        ) / 24.0
    return out


class TestAdamsMoulton:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 27])
    def test_every_length_integrates_a_constant(self, n):
        # A constant is integrated exactly by every start-up formula.
        out = adams_moulton_cumulative(np.ones(n), np.full(n, 0.5))
        assert out.shape == (n,)
        assert np.allclose(out, 0.5 * np.arange(n), atol=1e-14)

    @given(
        n=st.integers(4, 60),
        k=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 12.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_running_sum_is_the_recurrence_bit_for_bit(self, n, k, seed, spread):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-spread, spread, (n, k))
        df = rng.uniform(1e-3, 2.0, n)
        assert np.array_equal(
            adams_moulton_cumulative(f, df), _adams_moulton_loop(f, df)
        )

    def test_integrates_polynomial_exactly(self):
        # AM4 is exact for cubics on uniform meshes.
        x = np.linspace(0.0, 2.0, 41)
        f = 3 * x**2
        out = adams_moulton_cumulative(f, np.full_like(x, x[1] - x[0]))
        assert np.allclose(out, x**3, atol=1e-10)

    def test_converges_on_smooth_integrand(self):
        x = np.linspace(0.0, np.pi, 201)
        out = adams_moulton_cumulative(np.sin(x), np.full_like(x, x[1] - x[0]))
        assert np.allclose(out, 1.0 - np.cos(x), atol=1e-8)

    def test_vector_channels(self):
        x = np.linspace(0, 1, 21)
        f = np.stack([x, x**2], axis=1)
        out = adams_moulton_cumulative(f, np.full_like(x, x[1] - x[0]))
        assert np.allclose(out[-1], [0.5, 1.0 / 3.0], atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adams_moulton_cumulative(np.zeros(5), np.zeros(4))


def _direct_potential(solver, expansion, points):
    """Spline call + analytic far field, atom by atom — no plan involved."""
    ls = np.concatenate([np.full(2 * l + 1, float(l)) for l in range(solver.l_max + 1)])
    pref = 4.0 * np.pi / (2.0 * ls + 1.0)
    v = np.zeros(points.shape[0])
    for a, spline in enumerate(expansion.potential_splines):
        d = points - solver.structure.coords[a]
        r = np.linalg.norm(d, axis=1)
        y = real_spherical_harmonics(d, solver.l_max)
        near = r <= solver.grid.shell_radii[a][-1]
        v[near] += np.einsum("ij,ij->i", spline(r[near]), y[near])
        vf = pref * expansion.far_moments[a] / r[~near, None] ** (ls + 1.0)
        v[~near] += np.einsum("ij,ij->i", vf, y[~near])
    return v


def _per_atom_expansion(solver, rho):
    """Stages 1-2 one atom at a time, each atom its own spline solve."""
    grid = solver.grid
    ls = np.concatenate([np.full(2 * l + 1, float(l)) for l in range(solver.l_max + 1)])
    pref = 4.0 * np.pi / (2.0 * ls + 1.0)
    n_ang = solver._y_ang.shape[0]
    w_ang = grid.angular_weights[:n_ang]
    moments, splines, far = [], [], []
    for a, r in enumerate(grid.shell_radii):
        sl = grid.points_of_atom(a)
        vals = rho[sl] * grid.partition_weights[sl] * np.tile(w_ang, len(r))
        mom = vals.reshape(len(r), n_ang) @ solver._y_ang
        dr = np.gradient(r)
        inner = adams_moulton_cumulative(mom * r[:, None] ** (ls + 2.0), dr)
        inner = inner + (mom[0] * r[0] ** (ls + 3.0) / (ls + 3.0))[None, :]
        outer_cum = adams_moulton_cumulative(mom * r[:, None] ** (1.0 - ls), dr)
        outer = outer_cum[-1][None, :] - outer_cum
        v = pref * (inner / r[:, None] ** (ls + 1.0) + outer * r[:, None] ** ls)
        moments.append(mom)
        splines.append(CubicSpline(r, v))
        far.append(inner[-1])
    return moments, splines, far


_PLAN_MOLECULES = {
    "h2": hydrogen_molecule,
    "water": water,
    "methane": methane,
    "c2h6": lambda: polyethylene(1),
}


def _solver_with_density(structure):
    grid = build_grid(structure, get_settings("minimal").grids, with_partition=True)
    solver = MultipoleSolver(grid, l_max=4)
    rng = np.random.default_rng(7)
    centre = structure.coords.mean(axis=0) + 0.3
    rho = np.exp(-0.4 * ((grid.points - centre) ** 2).sum(axis=1))
    return solver, rho * (1.0 + 0.2 * rng.random(grid.n_points))


@pytest.fixture(scope="module", params=list(_PLAN_MOLECULES))
def plan_case(request):
    """(solver, bumpy test density) on one built-in molecule."""
    return _solver_with_density(_PLAN_MOLECULES[request.param]())


@pytest.fixture(scope="module")
def chain_case():
    """The 26-atom chain's (solver, density), plans built: one per module."""
    solver, rho = _solver_with_density(polyethylene(4))
    solver.hartree_potential(rho)
    return solver, rho


def _plan_nbytes_formula(solver):
    """Per atom: (n_lm, n_near) harmonics plus an (n_lm, n_far) far table
    — n_points * n_lm floats together — int32 near + far indices, and
    four float64 weights per near point."""
    n_near = sum(p.near.shape[0] for p in solver._plans)
    n_lm = solver._plans[0].y_near.shape[0]
    return solver.structure.n_atoms * solver.grid.n_points * (8 * n_lm + 4) + 32 * n_near


def _assert_plan_algebra(solver, atom, plan, points):
    """What every plan must satisfy, whatever the points."""
    x = solver.grid.shell_radii[atom]
    r = np.linalg.norm(points - solver.structure.coords[atom], axis=1)
    n_near = plan.near.shape[0]
    # near and far partition the points at the outermost shell.
    assert np.array_equal(np.sort(np.concatenate([plan.near, plan.far])), np.arange(len(r)))
    assert np.all(r[plan.near] <= x[-1]) and np.all(r[plan.far] > x[-1])
    # Runs are disjoint, contiguous, in interval order, and cover near.
    intervals, starts, stops = (list(column) for column in zip(*plan.runs)) if plan.runs else ([], [], [])
    assert intervals == sorted(set(intervals))
    assert starts + [n_near] == [0] + stops  # each run starts where the last stopped
    assert all(lo < hi for lo, hi in zip(starts, stops))
    # Every point sits in its run's interval (radii below the first
    # shell clamp to it), so the interval index never decreases.
    rc = np.clip(r[plan.near], x[0], x[-1])
    for i, lo, hi in plan.runs:
        assert 0 <= i <= len(x) - 2
        assert np.all((x[i] <= rc[lo:hi]) & (rc[lo:hi] <= x[i + 1]))
    # The tables the run products read are channel-major and dense.
    assert plan.y_near.shape == (25, n_near) and plan.y_near.flags.c_contiguous
    assert plan.tap_weights.shape == (4, n_near) and plan.tap_weights.flags.c_contiguous
    assert plan.far_table.shape == (25, plan.far.shape[0]) and plan.far_table.flags.c_contiguous
    assert plan.near.dtype == plan.far.dtype == np.int32


class TestMultipoleSolverPlan:
    def test_planned_potential_matches_direct_evaluation(self, plan_case):
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        planned = solver.evaluate(expansion)
        direct = _direct_potential(solver, expansion, solver.grid.points)
        assert np.allclose(planned, direct, rtol=1e-12, atol=0.0)

    def test_explicit_grid_points_take_the_same_path(self, plan_case):
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        on_points = solver.evaluate(expansion, points=solver.grid.points)
        assert np.array_equal(on_points, solver.evaluate(expansion))

    def test_atom_subsets_add_up(self, plan_case):
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        atoms = list(range(solver.structure.n_atoms))
        part = solver.evaluate(expansion, atoms=atoms[::2])
        rest = solver.evaluate(expansion, atoms=atoms[1::2])
        assert np.allclose(part + rest, solver.evaluate(expansion), rtol=1e-12, atol=1e-14)

    def test_operator_stages_match_per_atom_stages(self, plan_case):
        """Stage 1 is bit-exact; stage 2 sums in another order.  On this
        bumpy density the per-atom recurrence itself is off by up to
        2.6e-11 (y) and 1.6e-11 (m) of its table's max against an
        extended-precision recurrence — ``outer[-1] - outer`` cancels the
        ``s^(1-l)``-amplified inner shells at l = 4 — and the operator,
        whose unit columns cancel exactly, by <= 1.1e-14, so the bound is
        the recurrence's error, not the operator's."""
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        moments, splines, far = _per_atom_expansion(solver, rho)
        for a in range(solver.structure.n_atoms):
            assert np.array_equal(expansion.moments[a], moments[a])
            assert_close_at_scale(expansion.potential_splines[a].y, splines[a].y, rtol=1e-10)
            assert_close_at_scale(expansion.potential_splines[a].m, splines[a].m, rtol=1e-10)
            assert_close_at_scale(expansion.far_moments[a], far[a], rtol=1e-14)

    def test_plan_is_not_mutated_by_use(self, plan_case):
        solver, rho = plan_case
        first = solver.hartree_potential(rho)
        solver.hartree_potential(rho[::-1].copy())
        assert np.array_equal(solver.hartree_potential(rho), first)

    def test_plan_bytes_formula(self, plan_case):
        solver, rho = plan_case
        solver.hartree_potential(rho)
        assert solver.plan_nbytes == _plan_nbytes_formula(solver)
        dense = solver.structure.n_atoms * solver.grid.n_points * 25 * 8
        assert solver.plan_nbytes <= 1.18 * dense  # all near: 1 + 36 / 200

    def test_plan_matches_the_stacked_product_it_replaced(self, plan_case):
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        assert_close_at_scale(
            solver.evaluate(expansion), oracle_stacked_product_potential(solver, expansion)
        )

    def test_grid_plans_satisfy_the_plan_algebra(self, plan_case):
        solver, rho = plan_case
        solver.hartree_potential(rho)
        for atom, plan in enumerate(solver._plans):
            _assert_plan_algebra(solver, atom, plan, solver.grid.points)


def _direct_stage_two(system, l, mom):
    """One ``l`` channel of stage 2 per call: two Adams-Moulton sweeps, the
    inner boundary and the tridiagonal solve, on ``(n_shells, k)`` moments."""
    r = system.x[:, None]
    dr = np.gradient(system.x)
    inner = adams_moulton_cumulative(mom * r ** (l + 2.0), dr)
    inner = inner + mom[0] * r[0] ** (l + 3.0) / (l + 3.0)
    outer = adams_moulton_cumulative(mom * r ** (1.0 - l), dr)
    v = 4.0 * np.pi / (2 * l + 1) * (inner / r ** (l + 1.0) + (outer[-1] - outer) * r**l)
    return v, system.second_derivatives(v), inner[-1]


class TestMultipoleSolverOperator:
    @pytest.mark.parametrize("l", range(5))
    def test_operator_is_the_direct_recurrence(self, plan_case, l):
        """Every species mesh, random moments shaped like a smooth density's
        ``l`` channel (``~ s^l`` at the nucleus; unshaped ones make the
        recurrence, not the operator, lose digits — see the test above).
        Measured: y 4.8e-16, m 4.0e-12, far 4.7e-16 of each table's max;
        m amplifies y's rounding through the mesh's second differences."""
        solver, _ = plan_case
        rng = np.random.default_rng(l)
        for group in solver._groups:
            n = group.system.n_knots
            assert group.operators[l].shape == (2 * n + 1, n)
            mom = rng.normal(size=(n, 6)) * group.system.x[:, None] ** l
            v, m, far = _direct_stage_two(group.system, l, mom)
            out = group.operators[l] @ mom
            assert_close_at_scale(out[:n], v, rtol=1e-14)
            assert_close_at_scale(out[n : 2 * n], m, rtol=1e-11)
            assert_close_at_scale(out[2 * n], far, rtol=1e-14)


class TestMultipoleSolverPlanAlgebra:
    """The interval-sorted plan on the chains and on points it was not
    built for: knots, the mesh edge, inside the first shell, none."""

    def test_chain_plans(self, chain_case):
        solver, _ = chain_case
        for atom, plan in enumerate(solver._plans):
            _assert_plan_algebra(solver, atom, plan, solver.grid.points)
        assert sum(len(p.runs) for p in solver._plans) == 478

    def test_chain_plan_matches_the_stacked_product_it_replaced(self, chain_case):
        solver, rho = chain_case
        expansion = solver.solve(solver.expand(rho))
        assert_close_at_scale(
            solver.evaluate(expansion), oracle_stacked_product_potential(solver, expansion)
        )

    def test_fourteen_atom_chain(self):
        solver, rho = _solver_with_density(polyethylene(2))
        expansion = solver.solve(solver.expand(rho))
        planned = solver.evaluate(expansion)
        for atom, plan in enumerate(solver._plans):
            _assert_plan_algebra(solver, atom, plan, solver.grid.points)
        assert_close_at_scale(planned, oracle_stacked_product_potential(solver, expansion))

    @pytest.fixture(scope="class")
    def h2_case(self):
        solver, rho = _solver_with_density(hydrogen_molecule())
        return solver, solver.solve(solver.expand(rho))

    def test_an_atom_with_no_far_points(self, h2_case):
        # (H2's own grid has 25 far points per atom: half of the other
        # atom's outermost shell.)  Keep the points inside both meshes.
        solver, expansion = h2_case
        r = np.linalg.norm(solver.grid.points[:, None] - solver.structure.coords, axis=2)
        points = solver.grid.points[(r <= 10.0).all(axis=1)]
        for atom in range(2):
            plan = solver._build_plan(atom, points)
            _assert_plan_algebra(solver, atom, plan, points)
            assert plan.far.shape == (0,) and plan.far_table.shape == (25, 0)
        assert np.allclose(
            solver.evaluate(expansion, points=points),
            _direct_potential(solver, expansion, points), rtol=1e-12, atol=0.0,
        )

    def test_points_on_knots_at_the_edge_and_inside_the_first_shell(self, h2_case):
        solver, expansion = h2_case
        x = solver.grid.shell_radii[0]
        origin = solver.structure.coords[0]
        radii = np.concatenate([x, [0.0, 0.5 * x[0], np.nextafter(x[-1], np.inf)]])
        points = origin + radii[:, None] * np.array([0.0, 0.6, 0.8])
        plan = solver._build_plan(0, points)
        _assert_plan_algebra(solver, 0, plan, points)
        interval_of = {
            int(point): i for i, lo, hi in plan.runs for point in plan.near[lo:hi]
        }
        assert np.linalg.norm(points[len(x) - 1] - origin) == x[-1]
        assert interval_of[len(x) - 1] == len(x) - 2  # r = x[-1]: near, last interval
        assert interval_of[len(x)] == interval_of[len(x) + 1] == 0  # r < x[0]: clamped
        assert plan.far.tolist() == [len(x) + 2]
        direct = _direct_potential(solver, expansion, points)
        assert np.allclose(solver.evaluate(expansion, points=points), direct, rtol=1e-12, atol=0.0)

    def test_zero_points(self, h2_case):
        solver, expansion = h2_case
        plan = solver._build_plan(0, np.empty((0, 3)))
        assert plan.runs == () and plan.nbytes == 0
        assert solver.evaluate(expansion, points=np.empty((0, 3))).shape == (0,)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), spread=st.floats(0.01, 30.0))
    @settings(max_examples=25, deadline=None)
    def test_random_points(self, h2_case, seed, n, spread):
        solver, expansion = h2_case
        points = spread * np.random.default_rng(seed).normal(size=(n, 3))
        for atom in range(2):
            _assert_plan_algebra(solver, atom, solver._build_plan(atom, points), points)
        assert_close_at_scale(
            solver.evaluate(expansion, points=points),
            oracle_stacked_product_potential(solver, expansion, points=points),
        )
        assert np.allclose(
            solver.evaluate(expansion, points=points),
            _direct_potential(solver, expansion, points), rtol=1e-12, atol=0.0,
        )


class TestMultipoleSolverKWide:
    """k densities ``(n_points, k)`` through one call: each stage's products
    one k axis wider, the data direction-major, so k = 1 is the 1-D call."""

    @staticmethod
    def _columns(rho):
        rng = np.random.default_rng(5)
        return np.column_stack([rho, rho * rng.uniform(0.5, 1.5, rho.shape), rho[::-1].copy()])

    def test_one_column_is_the_one_dimensional_call_bitwise(self, plan_case):
        solver, rho = plan_case
        assert np.array_equal(solver.hartree_potential(rho[:, None])[:, 0], solver.hartree_potential(rho))
        expansion = solver.solve(solver.expand(rho[:, None]))
        assert expansion.k == 1 and expansion.moments[0].shape[0] == 1

    def test_k_columns_match_column_by_column(self, plan_case):
        solver, rho = plan_case
        rhos = self._columns(rho)
        wide = solver.hartree_potential(rhos)
        assert wide.shape == rhos.shape
        for j in range(rhos.shape[1]):
            assert_close_at_scale(wide[:, j], solver.hartree_potential(rhos[:, j]), rtol=1e-14)

    def test_k_wide_evaluation_at_other_points(self, plan_case):
        solver, rho = plan_case
        rhos = self._columns(rho)
        points = solver.grid.points[::7] + 0.05
        wide = solver.evaluate(solver.solve(solver.expand(rhos)), points=points)
        for j in range(rhos.shape[1]):
            one = solver.evaluate(solver.solve(solver.expand(rhos[:, j])), points=points)
            assert_close_at_scale(wide[:, j], one, rtol=1e-14)

    def test_hostile_k_wide_inputs(self, plan_case):
        solver, rho = plan_case
        rhos = self._columns(rho)
        rhos[5, 2] = np.nan
        with pytest.raises(GridError, match="finite"):
            solver.hartree_potential(rhos)
        with pytest.raises(GridError, match="density"):
            solver.hartree_potential(self._columns(rho)[:-1])


class TestMultipoleSolverHostileInputs:
    """ROADMAP 5(c): a wrong-shaped or non-finite input is a GridError,
    not an n_points x n_points broadcast or an all-NaN potential."""

    def test_density_must_be_a_finite_vector(self, plan_case):
        """(n_points,) or (n_points, k) with k >= 1; an (n_points, 1)
        column is the k = 1 case of the k-wide call, so the broadcast
        shapes left are a row, a 3-D stack and k = 0."""
        solver, rho = plan_case
        empty = np.empty((rho.shape[0], 0))
        for bad in (rho[:, None, None], rho[None, :], rho[:-1], rho[:-1, None], empty, np.float64(1.0)):
            with pytest.raises(GridError, match="density"):
                solver.expand(bad)
        for poison in (np.nan, np.inf):
            bad = rho.copy()
            bad[3] = poison
            with pytest.raises(GridError, match="finite"):
                solver.hartree_potential(bad)

    def test_points_must_be_finite_n_by_3(self, plan_case):
        solver, rho = plan_case
        expansion = solver.solve(solver.expand(rho))
        for bad in (np.zeros((4, 2)), np.zeros((2, 2, 3)), np.zeros(0), [[0.0, np.nan, 0.0]]):
            with pytest.raises(GridError, match="points"):
                solver.evaluate(expansion, points=bad)
        one = solver.evaluate(expansion, points=[0.1, 0.2, 0.3])  # a bare triple is one point
        assert one.shape == (1,) and np.isfinite(one).all()


class TestHartreeStageThreeAllocatesNothingLarge:
    """No wall clock: glibc hands out megabyte arrays from the heap only
    after the process has once freed one that large (its mmap threshold
    is dynamic) and page-faults them in on every call otherwise, so a
    per-call ``(n_near, n_lm)`` temporary costs 25 ms or 31 ms per solve
    on the 26-chain depending on the process's allocation history.  The
    guard runs in a fresh interpreter that builds the solver and nothing
    else — the state in which the temporaries faulted (2 858 per call)."""

    SCRIPT = """
import resource, sys
import numpy as np
from repro.atoms import polyethylene
from repro.config import get_settings
from repro.dft.hartree import MultipoleSolver
from repro.grids import build_grid

grid = build_grid(polyethylene(1), get_settings("minimal").grids, with_partition=True)
solver = MultipoleSolver(grid, l_max=4)
rho = np.exp(-0.05 * ((grid.points - grid.points.mean(axis=0)) ** 2).sum(axis=1))
for _ in range(3):
    solver.hartree_potential(rho)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    solver.hartree_potential(rho)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""

    def test_warm_calls_do_not_page_fault(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert float(out.stdout) < 50.0

    def test_the_product_goes_to_the_held_scratch(self, plan_case, monkeypatch):
        from repro.dft import hartree as hartree_module
        from repro.utils import scratch as scratch_module

        solver, rho = plan_case
        solver.hartree_potential(rho)
        held = scratch_module.held_block()
        leased = []
        monkeypatch.setattr(
            hartree_module, "scratch", lambda shape: leased.append(shape) or scratch_module.scratch(shape)
        )
        solver.hartree_potential(rho)
        # One lease per atom, four rows per near point (not 2 n_shells + 4),
        # on the block the process already holds.
        assert leased == [(4, p.near.shape[0]) for p in solver._plans]
        assert scratch_module.held_block() is held and held.size >= max(4 * n for _, n in leased)


class TestMultipoleSolverLinearity:
    @pytest.fixture(scope="class")
    def water_solver(self):
        grid = build_grid(water(), get_settings("minimal").grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        # Smooth densities: grid-point noise puts O(noise) into the high-l
        # channels at the innermost shells, which s^(1-l) amplifies until
        # rounding in alpha*n1 + beta*n2 shows at 1e-9.
        r2 = (grid.points**2).sum(axis=1)
        n1 = np.exp(-0.5 * r2)
        n2 = np.exp(-1.5 * r2) * grid.points[:, 2]
        return solver, n1, n2, solver.hartree_potential(n1), solver.hartree_potential(n2)

    @given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_potential_is_linear_in_the_density(self, water_solver, alpha, beta):
        solver, n1, n2, v1, v2 = water_solver
        v = solver.hartree_potential(alpha * n1 + beta * n2)
        scale = np.abs(v1).max() + np.abs(v2).max()
        assert np.abs(v - (alpha * v1 + beta * v2)).max() <= 1e-12 * scale

    def test_chain_plan_fits_its_byte_budget(self, chain_case):
        # 69 % of the chain's atom-point pairs are inside a radial mesh;
        # the rest carry no spline weights.
        solver, _ = chain_case
        dense = solver.structure.n_atoms * solver.grid.n_points * 25 * 8
        assert solver.plan_nbytes == _plan_nbytes_formula(solver)
        assert solver.plan_nbytes <= 1.2 * dense


class TestMultipoleSolver:
    def test_hartree_energy_of_gaussian(self, minimal_settings):
        """v_H of a normalized Gaussian: E_H = (1/2) int n v = sqrt(2/pi)/2 /sigma..."""
        h2 = hydrogen_molecule()
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        # Unit-charge Gaussian at the molecular centre.
        alpha = 0.8
        n = (alpha / np.pi) ** 1.5 * np.exp(
            -alpha * (grid.points**2).sum(axis=1)
        )
        v = solver.hartree_potential(n)
        e_h = 0.5 * float(np.sum(grid.weights * n * v))
        exact = np.sqrt(alpha / (2.0 * np.pi))  # self-energy of Gaussian
        assert e_h == pytest.approx(exact, rel=2e-2)

    def test_far_field_is_coulombic(self, minimal_settings):
        h2 = hydrogen_molecule()
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        alpha = 1.2
        n = (alpha / np.pi) ** 1.5 * np.exp(-alpha * (grid.points**2).sum(axis=1))
        charge = float(np.sum(grid.weights * n))
        expansion = solver.solve(solver.expand(n))
        far = np.array([[25.0, 3.0, -4.0]])
        v = solver.evaluate(expansion, points=far)
        r = np.linalg.norm(far[0])
        assert v[0] == pytest.approx(charge / r, rel=2e-2)

    def test_expansion_nbytes_accounting(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        exp = solver.solve(solver.expand(np.ones(grid.n_points)))
        assert exp.rho_multipole_nbytes > 0
        assert exp.potential_spline_nbytes > 0


class TestMatrixBuilder:
    def test_overlap_properties(self, minimal_settings):
        h2 = hydrogen_molecule()
        basis = build_basis(h2)
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid)
        s = builder.overlap()
        assert np.allclose(s, s.T)
        # Normalized basis; minimal-grid quadrature is ~2% accurate.
        assert np.allclose(np.diag(s), 1.0, atol=5e-2)
        evals = np.linalg.eigvalsh(s)
        assert evals.min() > -1e-10  # PSD

    def test_kinetic_positive_definite(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2), build_grid(h2, minimal_settings.grids, with_partition=True)
        )
        t = builder.kinetic()
        assert np.linalg.eigvalsh(t).min() > 0.0

    def test_potential_matrix_of_constant_is_overlap(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2), build_grid(h2, minimal_settings.grids, with_partition=True)
        )
        v = builder.potential_matrix(np.full(builder.grid.n_points, 2.5))
        assert np.allclose(v, 2.5 * builder.overlap(), atol=1e-12)

    def test_density_integrates_to_electrons(self, h2_ground_state):
        gs = h2_ground_state
        n = gs.builder.backend.density_on_grid(gs.density_matrix)
        assert gs.grid.integrate(n) == pytest.approx(2.0, abs=1e-6)

    def test_density_nonnegative(self, h2_ground_state):
        gs = h2_ground_state
        n = gs.builder.backend.density_on_grid(gs.density_matrix)
        assert n.min() > -1e-10


class TestMixing:
    def test_diis_solves_linear_fixed_point_fast(self):
        """DIIS on x -> Ax + b converges far faster than plain iteration."""
        rng = np.random.default_rng(0)
        a = 0.6 * rng.normal(size=(8, 8))
        a = a / np.abs(np.linalg.eigvals(a)).max() * 0.9
        b = rng.normal(size=8)
        x_star = np.linalg.solve(np.eye(8) - a, b)

        mixer = PulayMixer(history=8, linear_factor=0.5)
        x = np.zeros(8)
        for _ in range(25):
            residual = a @ x + b - x
            x = mixer.push(x + residual, residual)
        assert np.linalg.norm(x - x_star) < 1e-6

    def test_history_validation(self):
        with pytest.raises(ValueError):
            PulayMixer(history=1)
        with pytest.raises(ValueError):
            PulayMixer(linear_factor=1.5)

    def test_reset(self):
        m = PulayMixer()
        m.push(np.ones(3), np.ones(3))
        m.reset()
        assert m.push(np.zeros(3), np.zeros(3)) is not None


class TestSCF:
    def test_h2_energy_reasonable(self, h2_ground_state):
        # LDA H2 ~ -1.14 Ha; minimal basis/grid lands nearby.
        assert -1.25 < h2_ground_state.total_energy < -1.0

    def test_h2_symmetric_dipole_zero(self, h2_ground_state):
        assert np.allclose(h2_ground_state.dipole_moment(), 0.0, atol=1e-8)

    def test_water_energy_and_dipole(self, water_ground_state):
        gs = water_ground_state
        assert -77.0 < gs.total_energy < -74.0
        mu = gs.dipole_moment()
        assert mu[2] > 0.1  # along the C2v axis
        assert abs(mu[0]) < 1e-6 and abs(mu[1]) < 1e-6

    def test_occupations_and_homo_lumo(self, water_ground_state):
        gs = water_ground_state
        assert gs.n_occupied == 5
        assert gs.occupations[:5].sum() == pytest.approx(10.0)
        homo, lumo = gs.eigenvalues[4], gs.eigenvalues[5]
        assert homo < lumo < 0.5

    def test_energy_components_sum(self, water_ground_state):
        gs = water_ground_state
        total = sum(gs.energy_components.values())
        assert total == pytest.approx(gs.total_energy, abs=1e-8)

    def test_odd_electron_count_rejected(self, minimal_settings):
        with pytest.raises(SCFConvergenceError, match="even electron count"):
            SCFDriver(water(), minimal_settings, charge=1)

    def test_convergence_failure_raises(self, minimal_settings):
        settings = minimal_settings.with_scf(max_iterations=1)
        with pytest.raises(SCFConvergenceError):
            SCFDriver(water(), settings).run()

    def test_overlap_is_orthogonalized_once_per_driver(self, minimal_settings, monkeypatch):
        """The factored-once eigensolver: one Lowdin per SCFDriver, and
        every cycle's eigenpairs bit-identical to the free function,
        which factors S again on each call."""
        from repro.utils import linalg

        calls = []
        real = linalg.lowdin_orthogonalization
        monkeypatch.setattr(
            linalg, "lowdin_orthogonalization", lambda s: calls.append(1) or real(s)
        )
        driver = SCFDriver(water(), minimal_settings)
        solved = []
        solve = driver._eigensolver.solve
        driver._eigensolver.solve = lambda h: solved.append((h.copy(), solve(h))) or solved[-1][1]
        cycles = driver.iter_cycles()
        for _ in range(3):
            next(cycles)
        assert len(calls) == 1 and len(solved) == 4  # the core guess + 3 cycles
        for h, (eps, c) in solved:
            eps_free, c_free = solve_generalized_eigenproblem(h, driver._s)
            assert np.array_equal(eps, eps_free) and np.array_equal(c, c_free)

    def test_field_lowers_symmetry(self, minimal_settings):
        driver = SCFDriver(hydrogen_molecule(), minimal_settings)
        gs = driver.run(external_field=np.array([0.0, 0.0, 1e-2]))
        assert abs(gs.dipole_moment()[2]) > 1e-3
