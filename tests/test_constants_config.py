"""Units, conversions and settings presets."""

import math

import pytest

from repro import constants
from repro.atoms import hydrogen_molecule
from repro.basis.basis_set import build_basis
from repro.config import get_settings, GridSettings, RunSettings
from repro.dft.hamiltonian import MatrixBuilder
from repro.errors import SettingsError
from repro.grids.atom_grid import build_grid


class TestConstants:
    def test_bohr_angstrom_roundtrip(self):
        assert constants.angstrom_to_bohr(constants.bohr_to_angstrom(3.7)) == pytest.approx(3.7)

    def test_one_angstrom_in_bohr(self):
        assert constants.angstrom_to_bohr(1.0) == pytest.approx(1.8897, abs=1e-3)

    def test_hartree_in_ev(self):
        assert constants.hartree_to_ev(1.0) == pytest.approx(27.2114, abs=1e-3)

    def test_polarizability_conversion_is_bohr_cubed(self):
        assert constants.POLARIZABILITY_AU_IN_A3 == pytest.approx(
            constants.BOHR_IN_ANGSTROM**3
        )


class TestSettings:
    def test_presets_exist(self):
        for level in ("minimal", "light", "tight"):
            s = get_settings(level)
            assert s.level == level

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown settings level"):
            get_settings("ultra")

    def test_override_top_level(self):
        s = get_settings("light", l_max_hartree=4)
        assert s.l_max_hartree == 4

    def test_with_grids_returns_modified_copy(self):
        s = get_settings("light")
        s2 = s.with_grids(n_angular=26)
        assert s2.grids.n_angular == 26
        assert s.grids.n_angular != 26 or s.grids.n_angular == 50

    def test_with_scf_and_cpscf(self):
        s = get_settings("light").with_scf(max_iterations=5).with_cpscf(mixing_factor=0.2)
        assert s.scf.max_iterations == 5
        assert s.cpscf.mixing_factor == 0.2

    def test_tight_has_finer_grids_than_light(self):
        light, tight = get_settings("light"), get_settings("tight")
        assert tight.grids.n_radial_base > light.grids.n_radial_base
        assert tight.grids.n_angular > light.grids.n_angular

    def test_grid_settings_defaults(self):
        g = GridSettings()
        assert 100 <= g.batch_target_points <= 300  # paper's batch size


class TestScreeningThresholdDomain:
    """A NaN threshold passed every ``> 0`` test as "dense", broke settings
    equality and reached the cache key; ``inf`` screened out every
    function.  Both, and any negative value, are a :class:`SettingsError`."""

    BAD = [math.nan, math.inf, -math.inf, -1.0, -1e-300]

    @pytest.mark.parametrize("bad", BAD)
    def test_run_settings_refuse_it(self, bad):
        with pytest.raises(SettingsError, match="finite and >= 0"):
            get_settings("minimal", screening_threshold=bad)
        with pytest.raises(SettingsError):
            RunSettings(screening_threshold=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_matrix_builder_refuses_it(self, bad, minimal_settings):
        structure = hydrogen_molecule()
        grid = build_grid(structure, minimal_settings.grids, with_partition=True)
        with pytest.raises(SettingsError, match="finite and >= 0"):
            MatrixBuilder(build_basis(structure), grid, screening_threshold=bad)

    @pytest.mark.parametrize("good", [0, 0.0, -0.0, 1e-6, 1e300])
    def test_finite_non_negative_values_pass(self, good):
        s = get_settings("minimal", screening_threshold=good)
        assert s == get_settings("minimal", screening_threshold=good)
        assert RunSettings.from_canonical_dict(s.as_canonical_dict()) == s
