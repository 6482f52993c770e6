"""DFPT: the library's central physics claim — response theory is exact
to first order, validated against finite-field references."""

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule, water
from repro.config import CPSCFSettings
from repro.core import PerturbationSimulator
from repro.dfpt import (
    DFPTSolver,
    finite_difference_polarizability,
    isotropic_polarizability,
    polarizability_tensor,
)
from repro.dft import SCFDriver
from repro.errors import CPSCFConvergenceError
from repro.utils import PhaseTimer, drain
from tests.setup_oracles import assert_close_at_scale


class TestResponseCycle:
    def test_converges_for_h2(self, h2_ground_state):
        solver = DFPTSolver(h2_ground_state)
        result = solver.solve_direction(2)
        assert result.iterations >= 2
        assert result.residual < 1e-6

    def test_direction_validation(self, h2_ground_state):
        with pytest.raises(ValueError):
            DFPTSolver(h2_ground_state).solve_direction(3)

    def test_response_density_integrates_to_zero(self, h2_ground_state):
        """A homogeneous field conserves charge: int n^(1) = 0."""
        result = DFPTSolver(h2_ground_state).solve_direction(2)
        total = h2_ground_state.grid.integrate(result.response_density)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_response_dm_symmetric(self, h2_ground_state):
        result = DFPTSolver(h2_ground_state).solve_direction(0)
        p1 = result.response_density_matrix
        assert np.allclose(p1, p1.T)

    def test_nonconvergence_raises(self, h2_ground_state):
        settings = CPSCFSettings(max_iterations=1, response_tolerance=1e-14)
        with pytest.raises(CPSCFConvergenceError):
            DFPTSolver(h2_ground_state, settings).solve_direction(0)

    def test_solve_all_returns_three(self, h2_ground_state):
        results = DFPTSolver(h2_ground_state).solve_all()
        assert [r.direction for r in results] == [0, 1, 2]


class TestDirectionBlock:
    """``iter_directions``: the field directions as one CPSCF sweep, one
    k-wide Sumup, Rho and H call per cycle; each direction converges on
    its own test and leaves the block."""

    #: The k-wide products reassociate a few sums of the column-by-column
    #: ones; measured at most 2.3e-16 of max|alpha| on H2, water, methane
    #: and polyethylene(1) at `minimal`.
    RTOL = 1e-12

    def test_the_block_matches_three_single_direction_runs(self, water_ground_state, minimal_settings):
        solver = DFPTSolver(water_ground_state, minimal_settings.cpscf)
        block = drain(solver.iter_directions((0, 1, 2)))
        singles = [solver.solve_direction(j) for j in range(3)]
        assert [r.direction for r in block] == [0, 1, 2]
        assert [r.iterations for r in block] == [r.iterations for r in singles]
        dipoles = water_ground_state.dipoles
        for got, want in zip(block, singles):
            assert got.residual < minimal_settings.cpscf.response_tolerance
            assert_close_at_scale(
                got.polarizability_column(dipoles), want.polarizability_column(dipoles), self.RTOL
            )
            assert_close_at_scale(got.response_density_matrix, want.response_density_matrix, self.RTOL)
            assert_close_at_scale(got.response_density, want.response_density, self.RTOL)

    def test_run_physics_keeps_the_scf_energy_bitwise(self, h2_ground_state, minimal_settings):
        result = PerturbationSimulator(hydrogen_molecule(), minimal_settings).run_physics()
        assert result.ground_state.total_energy == h2_ground_state.total_energy
        singles = [DFPTSolver(h2_ground_state, minimal_settings.cpscf).solve_direction(j) for j in range(3)]
        assert result.cpscf_iterations_per_direction == [r.iterations for r in singles]
        alpha = np.column_stack([r.polarizability_column(h2_ground_state.dipoles) for r in singles])
        assert_close_at_scale(result.polarizability, alpha, self.RTOL)

    def test_one_direction_is_the_block_of_one(self, h2_ground_state):
        solver = DFPTSolver(h2_ground_state)
        (block,) = drain(solver.iter_directions((2,)))
        single = solver.solve_direction(2)
        assert block.iterations == single.iterations
        assert np.array_equal(block.response_density_matrix, single.response_density_matrix)
        assert np.array_equal(block.response_density, single.response_density)

    def test_results_follow_the_order_asked_for(self, h2_ground_state):
        results = drain(DFPTSolver(h2_ground_state).iter_directions((2, 0)))
        assert [r.direction for r in results] == [2, 0]

    def test_converged_directions_leave_the_block(self, minimal_settings):
        """H2 converges x, y at cycle 18 and z at 23: 18 cycles three wide,
        5 one wide.  A k-wide Sumup or H call is one profile call charged
        k x the views' elements; the drivers re-evaluate each converged
        density once more, one call per cycle that converged any."""
        gs = SCFDriver(hydrogen_molecule(), minimal_settings).run()
        backend = gs.builder.backend
        before = {p: (s.calls, s.elements) for p, s in backend.profile.phases.items()}
        timer = PhaseTimer()
        results = drain(DFPTSolver(gs, minimal_settings.cpscf, timer=timer).iter_directions((0, 1, 2)))
        assert [r.iterations for r in results] == [18, 18, 23]
        calls = {
            p: (s.calls - before.get(p, (0, 0))[0], s.elements - before.get(p, (0, 0))[1])
            for p, s in backend.profile.phases.items()
        }
        elements = gs.builder.views.elements
        direction_cycles = 18 * 3 + 5
        assert timer.visits("Sumup") == timer.visits("H") == timer.visits("DM") == 23
        assert calls["H"] == (23, direction_cycles * elements)
        assert calls["Sumup"] == (23 + 2, (direction_cycles + 3) * elements)
        assert calls["DM"][0] == direction_cycles

    @pytest.mark.parametrize(
        "bad",
        [(), (0, 0), (True,), (1.0,), (3,), (-1,), (0, np.bool_(True)), ("0",), 1, None],
        ids=["empty", "duplicate", "bool", "float", "three", "negative", "numpy-bool", "str", "int", "none"],
    )
    def test_bad_directions_are_refused_by_name(self, h2_ground_state, bad):
        with pytest.raises(ValueError, match="directions"):
            next(DFPTSolver(h2_ground_state).iter_directions(bad))

    @pytest.mark.parametrize("bad", [True, 1.0, 3, -1])
    def test_one_bad_direction_is_refused(self, h2_ground_state, bad):
        """``direction not in (0, 1, 2)`` admitted True and 1.0, which then
        failed deep inside numpy."""
        with pytest.raises(ValueError, match="directions"):
            DFPTSolver(h2_ground_state).solve_direction(bad)

    def test_nonconvergence_names_the_first_direction_left(self, h2_ground_state):
        settings = CPSCFSettings(max_iterations=20)  # x and y converge at 18, z needs 23
        with pytest.raises(CPSCFConvergenceError, match="direction 2 did not converge") as exc:
            DFPTSolver(h2_ground_state, settings).solve_all()
        # One residual per cycle: the block's largest, z's alone at the end.
        history = exc.value.history
        assert len(history) == 20 and history[-1] == {"residual": exc.value.residual}

    def test_nonconvergence_survives_pickle(self, h2_ground_state):
        import pickle

        with pytest.raises(CPSCFConvergenceError) as exc:
            DFPTSolver(h2_ground_state, CPSCFSettings(max_iterations=3)).solve_all()
        back = pickle.loads(pickle.dumps(exc.value))
        assert type(back) is CPSCFConvergenceError and str(back) == str(exc.value)
        assert (back.iterations, back.residual) == (3, exc.value.residual)
        assert back.history == exc.value.history and len(back.history) == 3


class TestPolarizability:
    def test_h2_dfpt_matches_finite_difference(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        driver = SCFDriver(hydrogen_molecule(), minimal_settings)
        alpha_fd = finite_difference_polarizability(
            hydrogen_molecule(), minimal_settings, driver=driver
        )
        assert np.allclose(alpha, alpha_fd, atol=5e-4)

    def test_h2_symmetry(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        # Axial molecule along z: alpha_xx == alpha_yy, off-diagonals ~ 0.
        assert alpha[0, 0] == pytest.approx(alpha[1, 1], rel=1e-6)
        off = alpha - np.diag(np.diag(alpha))
        assert np.abs(off).max() < 1e-6
        # Parallel component exceeds perpendicular for H2.
        assert alpha[2, 2] > alpha[0, 0]

    def test_h2_positive_definite(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        assert np.linalg.eigvalsh(alpha).min() > 0.0

    def test_h2_magnitude_physical(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        iso = isotropic_polarizability(alpha)
        # Experimental ~5.2 a.u.; minimal model lands within ~30%.
        assert 3.0 < iso < 7.0

    def test_water_dfpt_matches_finite_difference(
        self, water_ground_state, minimal_settings
    ):
        alpha = polarizability_tensor(water_ground_state, minimal_settings.cpscf)
        driver = SCFDriver(water(), minimal_settings)
        alpha_fd = finite_difference_polarizability(
            water(), minimal_settings, driver=driver
        )
        assert np.allclose(alpha, alpha_fd, atol=1e-3)

    def test_water_magnitude_physical(self, water_ground_state, minimal_settings):
        alpha = polarizability_tensor(water_ground_state, minimal_settings.cpscf)
        iso = isotropic_polarizability(alpha)
        assert 7.0 < iso < 13.0  # expt ~9.8 a.u.

    def test_isotropic_validation(self):
        with pytest.raises(ValueError):
            isotropic_polarizability(np.zeros((2, 2)))

    def test_fd_step_validation(self, minimal_settings):
        with pytest.raises(ValueError):
            finite_difference_polarizability(
                hydrogen_molecule(), minimal_settings, step=0.0
            )
