"""Units, conversions and settings presets."""

import math

import pytest

from repro import constants
from repro.atoms import hydrogen_molecule
from repro.basis.basis_set import build_basis
from repro.config import CPSCFSettings, get_settings, GridSettings, RunSettings
from repro.dft.hamiltonian import MatrixBuilder
from repro.errors import SettingsError
from repro.grids.atom_grid import build_grid


class TestConstants:
    def test_bohr_angstrom_roundtrip(self):
        assert 3.7 * constants.BOHR_IN_ANGSTROM * constants.ANGSTROM_IN_BOHR == pytest.approx(3.7)

    def test_one_angstrom_in_bohr(self):
        assert constants.ANGSTROM_IN_BOHR == pytest.approx(1.8897, abs=1e-3)

    def test_hartree_in_ev(self):
        assert constants.HARTREE_IN_EV == pytest.approx(27.2114, abs=1e-3)

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


class TestCPSCFSettingsDomain:
    """``response_tolerance=inf`` stopped H2 after one cycle at
    alpha_zz = 4.55 instead of 6.26 and exited 0; a NaN mixing factor
    surfaced as an untyped backend ValueError.  Each bad value is a
    :class:`SettingsError` where the settings are made."""

    BAD = [
        {"response_tolerance": math.inf},
        {"response_tolerance": math.nan},
        {"response_tolerance": 0.0},
        {"response_tolerance": -1e-6},
        {"mixing_factor": math.nan},
        {"mixing_factor": 0.0},
        {"mixing_factor": 1.5},
        {"mixing_factor": -0.5},
        {"max_iterations": 0},
        {"max_iterations": 2.0},
        {"max_iterations": True},
    ]

    @pytest.mark.parametrize("bad", BAD, ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
    def test_run_settings_refuse_it(self, bad):
        with pytest.raises(SettingsError, match="CPSCF"):
            get_settings("minimal").with_cpscf(**bad)
        with pytest.raises(SettingsError, match="CPSCF"):
            RunSettings(cpscf=CPSCFSettings(**bad))

    @pytest.mark.parametrize("bad", BAD[:1] + BAD[4:5] + BAD[-1:], ids=["inf-tol", "nan-mix", "bool-iters"])
    def test_a_journaled_job_request_refuses_it(self, bad):
        """A payload written before the check decodes to the same error."""
        from repro.service.jobs import JobRequest, physics_from_payload

        payload = JobRequest("h2", settings=get_settings("minimal")).payload()
        payload["settings"]["cpscf"].update(bad)
        with pytest.raises(SettingsError, match="CPSCF"):
            physics_from_payload(payload)

    def test_the_cli_exits_2_without_a_traceback(self, monkeypatch, capsys):
        from repro import cli

        def preset(*args, **kwargs):
            return get_settings(*args, **kwargs).with_cpscf(response_tolerance=math.inf)

        monkeypatch.setattr(cli, "get_settings", preset)
        assert cli.main(["physics", "--polyethylene", "8", "--level", "minimal"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: CPSCF response_tolerance")
        assert "Traceback" not in captured.err and "SCF" not in captured.out

    @pytest.mark.parametrize("good", [
        {"mixing_factor": 1.0}, {"mixing_factor": 1e-3}, {"response_tolerance": 1e-300},
        {"max_iterations": 1},
    ])
    def test_edge_values_pass(self, good):
        s = get_settings("minimal").with_cpscf(**good)
        assert RunSettings.from_canonical_dict(s.as_canonical_dict()) == s


class TestSCFAndGridSettingsDomain:
    """The ground-state and grid knobs get the CPSCF checks: a count is an
    integer (not a bool) at least 1 — the DIIS history at least 2 — a
    tolerance or the radial multiplier finite and positive, and a mixing
    factor in (0, 1]."""

    BAD_SCF = [
        {"max_iterations": 0}, {"max_iterations": -3}, {"max_iterations": 60.0},
        {"max_iterations": True}, {"pulay_history": 1}, {"pulay_history": False},
        {"density_tolerance": math.nan}, {"density_tolerance": math.inf},
        {"density_tolerance": 0.0}, {"density_tolerance": -1e-6},
        {"energy_tolerance": math.nan}, {"energy_tolerance": math.inf},
        {"energy_tolerance": 0.0}, {"energy_tolerance": True},
        {"mixing_factor": math.nan}, {"mixing_factor": 0.0},
        {"mixing_factor": 1.5}, {"mixing_factor": -0.35}, {"mixing_factor": math.inf},
    ]
    BAD_GRIDS = [
        {"n_radial_base": 0}, {"n_radial_base": -24}, {"n_radial_base": 24.0},
        {"n_angular": True}, {"batch_target_points": 0},
        {"becke_smoothing": 0}, {"becke_smoothing": 3.5},
        {"radial_multiplier": math.nan}, {"radial_multiplier": math.inf},
        {"radial_multiplier": 0.0}, {"radial_multiplier": -1.0},
        {"radial_multiplier": True},
    ]

    @staticmethod
    def _id(bad):
        return "-".join(f"{k}={v}" for k, v in bad.items())

    @pytest.mark.parametrize("bad", BAD_SCF, ids=_id.__func__)
    def test_scf_settings_refuse_it(self, bad):
        from repro.config import SCFSettings

        with pytest.raises(SettingsError, match=f"SCF {next(iter(bad))}"):
            get_settings("minimal").with_scf(**bad)
        with pytest.raises(SettingsError, match="SCF"):
            RunSettings(scf=SCFSettings(**bad))

    @pytest.mark.parametrize("bad", BAD_GRIDS, ids=_id.__func__)
    def test_grid_settings_refuse_it(self, bad):
        with pytest.raises(SettingsError, match=f"grid {next(iter(bad))}"):
            get_settings("minimal").with_grids(**bad)
        with pytest.raises(SettingsError, match="grid"):
            RunSettings(grids=GridSettings(**bad))

    @pytest.mark.parametrize("part, bad", [
        ("scf", {"mixing_factor": math.nan}), ("scf", {"density_tolerance": math.inf}),
        ("grids", {"radial_multiplier": 0.0}), ("grids", {"n_angular": True}),
    ], ids=["nan-mix", "inf-tol", "zero-multiplier", "bool-angular"])
    def test_a_journaled_job_request_refuses_it(self, part, bad):
        from repro.service.jobs import JobRequest, physics_from_payload

        payload = JobRequest("h2", settings=get_settings("minimal")).payload()
        payload["settings"][part].update(bad)
        with pytest.raises(SettingsError):
            physics_from_payload(payload)

    @pytest.mark.parametrize("override", [
        lambda s: s.with_scf(energy_tolerance=math.nan),
        lambda s: s.with_grids(radial_multiplier=-1.0),
    ], ids=["scf", "grid"])
    def test_the_cli_exits_2_before_any_file_opens(
        self, override, monkeypatch, capsys, tmp_path
    ):
        from repro import cli

        monkeypatch.setattr(cli, "get_settings", lambda *a, **k: override(get_settings(*a, **k)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["physics", "--polyethylene", "8", "--level", "minimal"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    def test_every_preset_and_its_journaled_form_decode(self):
        from repro.config import _PRESETS

        for level in _PRESETS:
            s = get_settings(level)
            assert RunSettings.from_canonical_dict(s.as_canonical_dict()) == s

    @pytest.mark.parametrize("good", [
        {"mixing_factor": 1.0}, {"mixing_factor": 1e-300}, {"density_tolerance": 1e-300},
        {"max_iterations": 1}, {"pulay_history": 2}, {"energy_tolerance": 1e-300},
    ])
    def test_edge_values_pass(self, good):
        s = get_settings("minimal").with_scf(**good)
        assert RunSettings.from_canonical_dict(s.as_canonical_dict()) == s
