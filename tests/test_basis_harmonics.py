"""Spherical harmonics: orthonormality, indexing, gradients, consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis.solid_harmonics import (
    MAX_BASIS_L,
    solid_harmonics,
    solid_harmonics_with_gradients,
)
from repro.basis.ylm import (
    harmonics_by_channel,
    lm_index,
    n_lm,
    real_spherical_harmonics,
)
from repro.grids.angular import angular_rule

from .setup_oracles import oracle_real_spherical_harmonics


class TestIndexing:
    def test_n_lm(self):
        assert n_lm(0) == 1 and n_lm(2) == 9 and n_lm(6) == 49

    def test_lm_index_enumeration(self):
        pairs = [(l, m) for l in range(4) for m in range(-l, l + 1)]
        for i, (l, m) in enumerate(pairs):
            assert lm_index(l, m) == i

    def test_invalid_lm(self):
        with pytest.raises(ValueError):
            lm_index(1, 2)
        with pytest.raises(ValueError):
            n_lm(-1)


class TestYlm:
    @pytest.mark.parametrize("l_max", [0, 1, 2, 4, 6, 8])
    def test_orthonormal_under_quadrature(self, l_max):
        rule = angular_rule(2 * (l_max + 1) ** 2)
        assert rule.degree >= 2 * l_max
        y = real_spherical_harmonics(rule.points, l_max)
        gram = (y * rule.weights[:, None]).T @ y
        assert np.allclose(gram, np.eye(n_lm(l_max)), atol=1e-10)

    def test_y00_constant(self, rng):
        dirs = rng.normal(size=(50, 3))
        y = real_spherical_harmonics(dirs, 0)
        assert np.allclose(y[:, 0], 0.5 / np.sqrt(np.pi))

    def test_direction_normalization_invariance(self, rng):
        dirs = rng.normal(size=(20, 3))
        y1 = real_spherical_harmonics(dirs, 4)
        y2 = real_spherical_harmonics(dirs * 7.3, 4)
        assert np.allclose(y1, y2, atol=1e-12)

    def test_known_p_orbitals(self):
        # Y_1,0 along +z, Y_1,1 ~ x, Y_1,-1 ~ y with sqrt(3/4pi).
        c = np.sqrt(3.0 / (4.0 * np.pi))
        y = real_spherical_harmonics(np.array([[0.0, 0.0, 1.0]]), 1)
        assert y[0, lm_index(1, 0)] == pytest.approx(c)
        y = real_spherical_harmonics(np.array([[1.0, 0.0, 0.0]]), 1)
        assert y[0, lm_index(1, 1)] == pytest.approx(c)
        y = real_spherical_harmonics(np.array([[0.0, 1.0, 0.0]]), 1)
        assert y[0, lm_index(1, -1)] == pytest.approx(c)

    def test_pole_safe(self):
        y = real_spherical_harmonics(np.array([[0.0, 0.0, -1.0]]), 6)
        assert np.all(np.isfinite(y))

    def test_zero_vector_safe(self):
        y = real_spherical_harmonics(np.zeros((1, 3)), 4)
        assert np.all(np.isfinite(y))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), l_max=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_channel_major_values_are_the_row_major_values(self, seed, n, l_max):
        """One implementation, two layouts: the channel-major evaluation
        writes contiguous rows where the old one wrote strided columns,
        and every value — at the poles, at the zero vector, off the unit
        sphere — keeps its bits."""
        rng = np.random.default_rng(seed)
        special = [
            [0.0, 0.0, 1.0], [0.0, 0.0, -3.0], [0.0, 0.0, 0.0], [1e-310, 0.0, 0.0],
            [2.0, 0.0, 0.0], [0.0, 1e-14, 1.0], [1e-200, 1e-200, 0.0],
        ]
        directions = np.concatenate([special, rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4)])
        want = oracle_real_spherical_harmonics(directions, l_max)
        by_channel = harmonics_by_channel(directions, l_max)
        by_point = real_spherical_harmonics(directions, l_max)
        assert by_channel.shape == (n_lm(l_max), len(directions))
        assert by_channel.flags.c_contiguous and by_point.flags.c_contiguous
        assert np.array_equal(by_channel.T, want) and np.array_equal(by_point, want)

    def test_no_points(self):
        assert harmonics_by_channel(np.empty((0, 3)), 4).shape == (25, 0)
        assert real_spherical_harmonics(np.empty((0, 3)), 4).shape == (0, 25)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_addition_theorem(self, seed):
        """sum_m Y_lm(u)^2 = (2l+1)/(4 pi) for any direction (property)."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(1, 3))
        if np.linalg.norm(u) < 1e-6:
            u = np.array([[1.0, 0.0, 0.0]])
        y = real_spherical_harmonics(u, 6)
        for l in range(7):
            total = sum(y[0, lm_index(l, m)] ** 2 for m in range(-l, l + 1))
            assert total == pytest.approx((2 * l + 1) / (4 * np.pi), rel=1e-9)


class TestSolidHarmonics:
    def test_matches_ylm_times_r_power(self, rng):
        pts = rng.normal(size=(40, 3))
        r = np.linalg.norm(pts, axis=1)
        s = solid_harmonics(pts, 2)
        y = real_spherical_harmonics(pts, 2)
        for l in range(3):
            for m in range(-l, l + 1):
                k = lm_index(l, m)
                assert np.allclose(s[:, k], y[:, k] * r**l, atol=1e-10)

    def test_gradients_match_finite_difference(self, rng):
        pts = rng.normal(size=(25, 3))
        _, grads = solid_harmonics_with_gradients(pts, 2)
        eps = 1e-6
        for axis in range(3):
            dp = pts.copy()
            dp[:, axis] += eps
            dm = pts.copy()
            dm[:, axis] -= eps
            fd = (solid_harmonics(dp, 2) - solid_harmonics(dm, 2)) / (2 * eps)
            assert np.allclose(grads[:, :, axis], fd, atol=1e-7)

    def test_l_max_guard(self):
        with pytest.raises(ValueError):
            solid_harmonics(np.zeros((1, 3)), MAX_BASIS_L + 1)
