"""Radial grids, shell definitions and the structure-wide basis set."""

import numpy as np
import pytest

from repro.atoms import element, hydrogen_molecule, water
from repro.basis import (
    BasisSet,
    LogRadialGrid,
    RadialShell,
    build_basis,
    light_shells,
    radial_function,
)
from repro.basis.sets import CONFINE_CUT, confinement_window
from repro.errors import BasisError


class TestLogRadialGrid:
    def test_monotone_and_bounds(self):
        g = LogRadialGrid.make(1e-4, 20.0, 100)
        assert g.r[0] == pytest.approx(1e-4)
        assert g.r[-1] == pytest.approx(20.0)
        assert np.all(np.diff(g.r) > 0)

    def test_integrates_exponential(self):
        g = LogRadialGrid.make(1e-6, 40.0, 400)
        # int_0^inf e^-r dr = 1 (grid misses [0, r_min), tiny).
        val = g.integrate(np.exp(-g.r))
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogRadialGrid.make(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            LogRadialGrid.make(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            LogRadialGrid.make(1e-3, 1.0, 2)


class TestShells:
    def test_light_shell_counts_match_element_table(self):
        for sym in ("H", "C", "N", "O", "S"):
            shells = light_shells(sym)
            total = sum(s.n_functions for s in shells)
            assert total == element(sym).n_basis_light

    def test_unknown_species(self):
        with pytest.raises(BasisError):
            light_shells("Zz")

    def test_shell_validation(self):
        with pytest.raises(BasisError):
            RadialShell(1, 1, 1.0, "bad")  # l >= n
        with pytest.raises(BasisError):
            RadialShell(2, 0, -1.0, "bad")

    def test_confinement_window_shape(self):
        r = np.array([0.0, 5.0, 7.0, 8.0, 9.0, 12.0])
        w = confinement_window(r)
        assert w[0] == 1.0 and w[2] == 1.0
        assert 0.0 < w[3] < 1.0
        assert w[4] == pytest.approx(0.0, abs=1e-12)
        assert w[5] == pytest.approx(0.0, abs=1e-12)

    def test_radial_function_normalized(self):
        grid = LogRadialGrid.for_species(6, 320, r_max=12.0)
        for shell in light_shells("C"):
            spline, cutoff = radial_function(shell, grid)
            g = spline(grid.r)
            radial = g * grid.r**shell.l
            norm = grid.integrate(radial**2 * grid.r**2)
            assert norm == pytest.approx(1.0, rel=1e-6)
            assert 0 < cutoff <= CONFINE_CUT

    def test_radial_function_vanishes_beyond_cutoff(self):
        grid = LogRadialGrid.for_species(1, 320, r_max=12.0)
        spline, _ = radial_function(light_shells("H")[0], grid)
        assert abs(spline(CONFINE_CUT + 1.0)) < 1e-6


class TestBasisSet:
    def test_counts(self):
        b = build_basis(water())
        assert b.n_basis == 11 + 5 + 5
        assert list(b.atom_offsets) == [0, 11, 16, 21]

    def test_function_metadata(self):
        b = build_basis(hydrogen_molecule())
        f = b.functions[0]
        assert f.atom == 0 and f.l == 0 and f.m == 0

    def test_evaluate_screening_consistency(self, rng):
        b = build_basis(water())
        pts = rng.normal(size=(30, 3)) * 2.0
        full = b.evaluate(pts)
        only_o = b.evaluate(pts, atoms=[0])
        # Oxygen columns agree; H columns zero in screened result.
        assert np.allclose(full[:, :11], only_o[:, :11])
        assert np.allclose(only_o[:, 11:], 0.0)

    def test_values_vanish_beyond_cutoff(self):
        b = build_basis(hydrogen_molecule())
        far = np.array([[50.0, 0.0, 0.0]])
        assert np.allclose(b.evaluate(far), 0.0)

    def test_gradient_consistency(self, rng):
        b = build_basis(hydrogen_molecule())
        pts = rng.normal(size=(12, 3))
        v, g = b.evaluate_with_gradients(pts)
        assert np.allclose(v, b.evaluate(pts))
        eps = 1e-5
        for axis in range(3):
            dp, dm = pts.copy(), pts.copy()
            dp[:, axis] += eps
            dm[:, axis] -= eps
            fd = (b.evaluate(dp) - b.evaluate(dm)) / (2 * eps)
            assert np.allclose(g[axis], fd, atol=1e-7)

    def test_atom_cutoffs_positive(self):
        b = build_basis(water())
        assert np.all(b.atom_cutoffs > 0)

    def test_species_spline_tables_refuse_writes(self):
        """Every molecule of the process shares the species cache's
        arrays, so a write through one basis set must raise."""
        from repro.basis.basis_set import _SPECIES_CACHE

        build_basis(water())
        for symbol in ("H", "O"):
            for _shell, spline, _cutoff in _SPECIES_CACHE[symbol]:
                for table in (spline.x, spline.y, spline.m):
                    with pytest.raises(ValueError, match="read-only"):
                        table[0] = 99.0

    def test_unsupported_level(self):
        with pytest.raises(BasisError):
            build_basis(water(), level="tight")
