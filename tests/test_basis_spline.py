"""The cubic-spline kernel: exactness, derivatives, coefficient sizes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms.element import ELEMENTS
from repro.basis.basis_set import _species_shells
from repro.basis.spline import CubicSpline, SplineSystem, spline_coefficient_nbytes
from repro.grids.shells import radial_shells_for_species


class TestCubicSpline:
    def test_interpolates_knots_exactly(self, rng):
        x = np.sort(rng.uniform(0, 10, 20))
        x[0], x[-1] = 0.0, 10.0
        x = np.unique(x)
        y = rng.normal(size=x.shape)
        s = CubicSpline(x, y)
        assert np.allclose(s(x), y, atol=1e-12)

    def test_exact_on_linear_functions(self):
        x = np.linspace(0, 5, 17)
        y = 3.0 * x - 1.0
        s = CubicSpline(x, y)
        t = np.linspace(0, 5, 301)
        assert np.allclose(s(t), 3.0 * t - 1.0, atol=1e-12)
        assert np.allclose(s.derivative(t), 3.0, atol=1e-12)

    def test_converges_on_smooth_function(self):
        x = np.linspace(0, np.pi, 200)
        s = CubicSpline(x, np.sin(x))
        t = np.linspace(0.1, np.pi - 0.1, 500)
        assert np.abs(s(t) - np.sin(t)).max() < 1e-6
        assert np.abs(s.derivative(t) - np.cos(t)).max() < 1e-4

    def test_clamps_outside_range(self):
        x = np.linspace(1.0, 2.0, 5)
        s = CubicSpline(x, x**2)
        assert s(0.0) == pytest.approx(1.0)
        assert s(3.0) == pytest.approx(4.0)

    def test_vector_valued(self, rng):
        x = np.linspace(0, 1, 10)
        y = rng.normal(size=(10, 4))
        s = CubicSpline(x, y)
        out = s(np.array([0.25, 0.75]))
        assert out.shape == (2, 4)
        assert np.allclose(s(x), y, atol=1e-12)

    def test_scalar_input_keeps_shape(self):
        s = CubicSpline(np.linspace(0, 1, 5), np.zeros(5))
        assert np.isscalar(s(0.5)) or s(0.5).shape == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            CubicSpline(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CubicSpline(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CubicSpline(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CubicSpline(np.linspace(0, 1, 4), np.zeros(5))

    def test_derivative_matches_finite_difference(self, rng):
        x = np.linspace(0, 2, 30)
        y = np.exp(-x) * np.sin(3 * x)
        s = CubicSpline(x, y)
        t = np.linspace(0.2, 1.8, 50)
        h = 1e-6
        fd = (s(t + h) - s(t - h)) / (2 * h)
        assert np.allclose(s.derivative(t), fd, atol=1e-6)

    @given(n=st.integers(min_value=4, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_natural_boundary_second_derivative_zero(self, n):
        """Natural splines have y'' = 0 at both ends (property)."""
        rng = np.random.default_rng(n)
        x = np.linspace(0, 1, n)
        y = rng.normal(size=n)
        s = CubicSpline(x, y)
        assert s.m[0] == pytest.approx(0.0)
        assert s.m[-1] == pytest.approx(0.0)

    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        c=st.floats(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_quadratic_reproduced_inside_with_dense_knots(self, a, b, c):
        """Dense natural splines approximate quadratics well away from ends."""
        x = np.linspace(-1, 1, 120)
        y = a * x**2 + b * x + c
        s = CubicSpline(x, y)
        t = np.linspace(-0.7, 0.7, 41)
        assert np.allclose(s(t), a * t**2 + b * t + c, atol=1e-4)

    def test_coefficient_nbytes_matches_prediction(self):
        n, k = 37, 5
        s = CubicSpline(np.linspace(0, 1, n), np.zeros((n, k)))
        assert s.coefficient_nbytes == spline_coefficient_nbytes(n, k)

    def test_coefficient_nbytes_validation(self):
        with pytest.raises(ValueError):
            spline_coefficient_nbytes(1, 1)
        with pytest.raises(ValueError):
            spline_coefficient_nbytes(5, 0)


def _searchsorted_rule(x, t):
    """The lookup every mesh must reproduce, spelled out literally."""
    return np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.shape[0] - 2)


#: Every species' basis mesh (geometric), one with an appended end knot
#: off the progression (what ``radial_function`` appends when a mesh
#: ends before the confinement cut), and a Hartree shell mesh (not
#: geometric: the binary-search fallback).
_SPECIES_MESHES = {
    sym: _species_shells(sym, elem.z)[0][1].system for sym, elem in ELEMENTS.items()
}
_MESHES = dict(
    _SPECIES_MESHES,
    appended_knot=SplineSystem(np.append(_SPECIES_MESHES["C"].x[:-40], 9.0)),
    hartree_shells=SplineSystem(radial_shells_for_species(6, 24).r),
)


class TestIntervalLookup:
    """``SplineSystem.locate`` is the binary search's answer on every mesh,
    whether it takes the O(1) log path or falls back to the search."""

    def test_which_meshes_take_the_log_path(self):
        assert all(system._log_step is not None for system in _SPECIES_MESHES.values())
        assert _MESHES["appended_knot"]._log_step is not None
        assert _MESHES["hartree_shells"]._log_step is None

    @pytest.mark.parametrize("name", sorted(_MESHES))
    def test_knots_their_neighbours_and_the_ends(self, name):
        system = _MESHES[name]
        x = system.x
        t = np.concatenate([
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            [-np.inf, -1.0, -0.0, 0.0, 5e-324, x[-1], 2.0 * x[-1], 1e300, np.inf],
        ])
        idx, tc = system.locate(t)
        assert np.array_equal(idx, _searchsorted_rule(x, t))
        assert np.array_equal(tc, np.clip(t, x[0], x[-1]))

    @given(
        name=st.sampled_from(sorted(_MESHES)),
        t=st.lists(
            st.floats(min_value=-1.0, max_value=40.0, allow_nan=False)
            | st.floats(min_value=1e-7, max_value=1e-2),
            min_size=1, max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_radii(self, name, t):
        system, t = _MESHES[name], np.array(t)
        assert np.array_equal(system.locate(t)[0], _searchsorted_rule(system.x, t))

    @pytest.mark.parametrize("name", ["C", "hartree_shells"])
    def test_non_finite_radii_keep_their_results(self, name):
        """NaN gives NaN, +-inf the clamped end values, and nothing raises
        (a bare log-index would cast log(nan) to INT_MIN)."""
        system = _MESHES[name]
        x = system.x
        rng = np.random.default_rng(7)
        spline = CubicSpline.from_tables(
            system, rng.normal(size=(x.size, 3)), rng.normal(size=(x.size, 3))
        )
        t = np.array([np.nan, -np.inf, np.inf])
        value, slope = spline.value_and_derivative(t)
        assert np.isnan(value[0]).all() and np.isnan(slope[0]).all()
        assert np.array_equal(spline(t), value, equal_nan=True)
        assert np.array_equal(spline.derivative(t), slope, equal_nan=True)
        assert np.array_equal(value[1:], spline(np.array([x[0], x[-1]])))
        assert np.array_equal(slope[1:], spline.derivative(np.array([x[0], x[-1]])))
