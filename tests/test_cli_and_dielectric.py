"""CLI subcommands, hostile geometries and the dielectric-properties module."""

import warnings

import numpy as np
import pytest

from repro.atoms import Structure
from repro.cli import main
from repro.config import get_settings
from repro.core import PerturbationSimulator
from repro.dft import SCFDriver
from repro.errors import GeometryError
from repro.dfpt.dielectric import (
    clausius_mossotti_dielectric,
    polarizability_anisotropy,
    refractive_index,
)


class TestDielectric:
    def test_dilute_limit_is_vacuum(self):
        alpha = np.eye(3) * 10.0
        eps = clausius_mossotti_dielectric(alpha, molecular_volume=1e9)
        assert eps == pytest.approx(1.0, abs=1e-6)

    def test_water_like_refractive_index(self):
        # alpha ~ 9.8 a.u., volume per molecule ~ 30 A^3 ~ 202 Bohr^3.
        alpha = np.eye(3) * 9.8
        n = refractive_index(alpha, 202.0)
        assert 1.2 < n < 1.5  # optical n of water ~ 1.33

    def test_monotone_in_density(self):
        alpha = np.eye(3) * 9.8
        eps_dense = clausius_mossotti_dielectric(alpha, 150.0)
        eps_dilute = clausius_mossotti_dielectric(alpha, 400.0)
        assert eps_dense > eps_dilute

    def test_polarization_catastrophe_raises(self):
        with pytest.raises(ValueError, match="pole"):
            clausius_mossotti_dielectric(np.eye(3) * 100.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            clausius_mossotti_dielectric(np.eye(3), -1.0)
        with pytest.raises(ValueError):
            clausius_mossotti_dielectric(-np.eye(3), 10.0)

    def test_anisotropy_zero_for_isotropic(self):
        assert polarizability_anisotropy(np.eye(3) * 5.0) == pytest.approx(0.0)

    def test_anisotropy_axial(self):
        alpha = np.diag([4.0, 4.0, 7.0])
        assert polarizability_anisotropy(alpha) == pytest.approx(3.0)

    def test_anisotropy_shape_check(self):
        with pytest.raises(ValueError):
            polarizability_anisotropy(np.eye(2))


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sunway" in out and "MI50" in out

    def test_physics_on_geometry_file(self, tmp_path, capsys):
        from repro.atoms import hydrogen_molecule, write_geometry_in

        path = tmp_path / "geometry.in"
        write_geometry_in(hydrogen_molecule(), path)
        assert main(["physics", str(path), "--level", "minimal"]) == 0
        out = capsys.readouterr().out
        assert "polarizability" in out and "SCF converged" in out

    def test_model_polyethylene(self, capsys):
        assert main([
            "model", "--polyethylene", "602", "--machine", "hpc2",
            "--ranks", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "memory/rank" in out

    def test_model_baseline_flag(self, capsys):
        assert main([
            "model", "--polyethylene", "602", "--machine", "hpc1",
            "--ranks", "8", "--baseline",
        ]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["model"])


class TestScreeningFlag:
    """``--screening`` takes a finite threshold >= 0: NaN and negative
    values used to run the dense path silently, ``inf`` screened out every
    function and ended 60 iterations later in an SCFConvergenceError."""

    @pytest.mark.parametrize(
        "flag", [["--screening", "nan"], ["--screening=-1"], ["--screening", "inf"]],
        ids=["nan", "negative", "inf"],
    )
    def test_a_bad_threshold_exits_2_without_a_traceback(self, flag, capsys):
        argv = ["physics", "--polyethylene", "8", "--level", "minimal", *flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: screening threshold must be")
        assert "Traceback" not in captured.err and "SCF" not in captured.out

    def test_zero_is_the_exact_dense_path(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.atoms import hydrogen_molecule, write_geometry_in

        runs = []

        class Recording(PerturbationSimulator):
            def run_physics(self, *args, **kwargs):
                runs.append((self.settings, super().run_physics(*args, **kwargs)))
                return runs[-1][1]

        monkeypatch.setattr(cli, "PerturbationSimulator", Recording)
        path = tmp_path / "geometry.in"
        write_geometry_in(hydrogen_molecule(), path)
        assert main(["physics", str(path), "--level", "minimal"]) == 0
        assert main(["physics", str(path), "--level", "minimal", "--screening", "0"]) == 0
        (dense_settings, dense), (zero_settings, zero) = runs
        assert zero_settings == dense_settings and zero_settings.screening_threshold == 0.0
        assert zero.ground_state.total_energy == dense.ground_state.total_energy
        assert np.array_equal(zero.polarizability, dense.polarizability)


class TestHostileGeometries:
    """Non-finite and coincident nuclei are a GeometryError (exit 2 at the
    CLI), not a LinAlgError traceback or a GridError after a stream of
    RuntimeWarnings."""

    @pytest.mark.parametrize("second, message", [
        ("0 0 0", "0 Bohr apart"),
        ("0 0 1e-7", "Bohr apart"),
        ("nan 0 0.7", "non-finite"),
        ("0 -inf 0.7", "non-finite"),
    ])
    def test_physics_exits_2(self, tmp_path, capsys, second, message):
        path = tmp_path / "geometry.in"
        path.write_text(f"atom 0 0 0 H\natom {second} H\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["physics", str(path), "--level", "minimal"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and message in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_structure_rejects_non_finite_coordinates(self, bad):
        coords = np.zeros((3, 3))
        coords[1] = [0.0, 1.4, 0.0]
        coords[2, 2] = bad
        with pytest.raises(GeometryError, match="atom 2 has a non-finite"):
            Structure(["O", "H", "H"], coords)

    def test_scf_driver_names_the_coincident_pair_before_the_grid(self, monkeypatch):
        from repro.dft import scf

        monkeypatch.setattr(scf, "build_substrate", lambda *a: pytest.fail("grid built"))
        coords = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.4], [5e-7, 0.0, 1.4], [0.0, 3.0, 0.0]]
        with pytest.raises(GeometryError, match=r"atoms 1 \(H\) and 2 \(H\) are 5e-07 Bohr"):
            SCFDriver(Structure(["H"] * 4, coords), get_settings("minimal"))

    def test_the_bound_is_one_micro_bohr(self):
        from repro.dft.scf import _reject_coincident_nuclei

        _reject_coincident_nuclei(Structure(["H"] * 3, [[0, 0, 0], [0, 0, 1.01e-6], [0, 0, 2.02e-6]]))
        with pytest.raises(GeometryError, match=r"atoms 1 \(H\) and 2 \(H\) are 9.9e-07"):
            _reject_coincident_nuclei(Structure(["H"] * 3, [[0, 0, 0], [0, 0, 1.01e-6], [0, 0, 2e-6]]))
