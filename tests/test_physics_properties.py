"""Property-based tests of the occupation primitives.

The example-based suites pin specific molecules; these assert the
algebraic contracts (electron-count conservation, entropy sign) over
randomized spectra.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dft.occupations import (
    aufbau_occupations,
    fermi_occupations,
    smearing_entropy,
)


def _spectrum(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.normal(scale=2.0, size=n))


class TestFermiOccupations:
    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 40),
        width=st.floats(1e-4, 0.5),
        filling=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_electron_count_conserved(self, seed, n_states, width, filling):
        eigenvalues = _spectrum(seed, n_states)
        n_electrons = 2.0 * round(filling * n_states, 6)
        f, mu = fermi_occupations(eigenvalues, n_electrons, width)
        assert abs(float(f.sum()) - n_electrons) < 1e-8
        assert np.all(f >= 0.0) and np.all(f <= 2.0)
        assert np.isfinite(mu)

    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 40),
        width=st.floats(1e-4, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupations_monotone_in_energy(self, seed, n_states, width):
        eigenvalues = _spectrum(seed, n_states)
        f, _ = fermi_occupations(eigenvalues, float(n_states), width)
        # Sorted eigenvalues => non-increasing Fermi-Dirac occupations.
        assert np.all(np.diff(f) <= 1e-12)

    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 20),
        n_occ=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_width_recovers_aufbau(self, seed, n_states, n_occ):
        eigenvalues = _spectrum(seed, n_states)
        n_electrons = 2.0 * min(n_occ, n_states)
        f_zero, _ = fermi_occupations(eigenvalues, n_electrons, width=0.0)
        f_aufbau = aufbau_occupations(eigenvalues, n_electrons)
        np.testing.assert_array_equal(f_zero, f_aufbau)

    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 20),
        n_occ=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_width_approaches_aufbau(self, seed, n_states, n_occ):
        eigenvalues = _spectrum(seed, n_states)
        # A gapped spectrum: widen the HOMO-LUMO separation explicitly.
        n_occ = min(n_occ, n_states - 1)
        eigenvalues[n_occ:] += 2.0
        n_electrons = 2.0 * n_occ
        f, _ = fermi_occupations(eigenvalues, n_electrons, width=1e-4)
        f_aufbau = aufbau_occupations(eigenvalues, n_electrons)
        assert float(np.abs(f - f_aufbau).max()) < 1e-6


class TestSmearingEntropy:
    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 40),
        width=st.floats(1e-4, 0.5),
        filling=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_term_never_positive(self, seed, n_states, width, filling):
        eigenvalues = _spectrum(seed, n_states)
        n_electrons = 2.0 * round(filling * n_states, 6)
        f, _ = fermi_occupations(eigenvalues, n_electrons, width)
        # smearing_entropy returns -T*S with S >= 0, so the energy
        # correction is <= 0, and exactly 0 only for integer filling.
        ts = smearing_entropy(f, width)
        assert ts <= 0.0
        assert smearing_entropy(f, 0.0) == 0.0

    @given(width=st.floats(1e-4, 0.5), n_states=st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_integer_occupations_carry_no_entropy(self, width, n_states):
        # The implementation floors f and 1-f at 1e-300 before the log,
        # so fully (un)occupied states leave a ~1e-298 residue, not an
        # exact zero — negligible against any energy scale in the code.
        f = np.full(n_states, 2.0)
        assert abs(smearing_entropy(f, width)) < 1e-250
