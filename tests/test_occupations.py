"""Aufbau and Fermi-Dirac occupations, and the smearing entropy term."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.dft.occupations import (
    aufbau_occupations,
    fermi_occupations,
    smearing_entropy,
)
from repro.errors import SCFConvergenceError


class TestOccupations:
    def test_aufbau_integer(self):
        eps = np.array([-1.0, -0.5, 0.1, 0.3])
        f = aufbau_occupations(eps, 4)
        assert f.tolist() == [2.0, 2.0, 0.0, 0.0]

    def test_aufbau_fractional_frontier(self):
        f = aufbau_occupations(np.array([-1.0, -0.5]), 3)
        assert f.tolist() == [2.0, 1.0]

    def test_aufbau_unsorted_input(self):
        eps = np.array([0.3, -1.0, 0.1, -0.5])
        f = aufbau_occupations(eps, 4)
        assert f.tolist() == [0.0, 2.0, 0.0, 2.0]

    def test_aufbau_overfull_raises(self):
        with pytest.raises(SCFConvergenceError):
            aufbau_occupations(np.array([-1.0]), 4)

    def test_fermi_conserves_electrons(self):
        eps = np.linspace(-1.0, 1.0, 20)
        f, mu = fermi_occupations(eps, 13.0, width=0.05)
        assert f.sum() == pytest.approx(13.0, abs=1e-10)
        assert eps.min() < mu < eps.max()

    def test_fermi_zero_width_is_aufbau(self):
        eps = np.array([-1.0, -0.5, 0.1])
        f, _ = fermi_occupations(eps, 4, width=0.0)
        assert f.tolist() == [2.0, 2.0, 0.0]

    def test_fermi_degenerate_states_share(self):
        eps = np.array([-1.0, 0.0, 0.0])
        f, _ = fermi_occupations(eps, 3.0, width=0.01)
        assert f[1] == pytest.approx(f[2], rel=1e-9)
        assert f[1] == pytest.approx(0.5, abs=1e-6)

    @given(ne=st.floats(0.5, 7.5), width=st.floats(1e-3, 0.2))
    @hyp_settings(max_examples=30, deadline=None)
    def test_fermi_conservation_property(self, ne, width):
        eps = np.linspace(-2.0, 2.0, 8)
        f, _ = fermi_occupations(eps, ne, width=width)
        assert f.sum() == pytest.approx(ne, abs=1e-9)
        assert np.all(f >= 0) and np.all(f <= 2.0)

    def test_entropy_nonnegative_and_zero_for_integers(self):
        assert smearing_entropy(np.array([2.0, 0.0]), 0.05) == pytest.approx(0.0, abs=1e-8)
        s = smearing_entropy(np.array([1.0, 1.0]), 0.05)
        assert s < 0.0  # -T*S lowers the free energy
