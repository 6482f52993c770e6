"""CLI subcommands, hostile geometries and the dielectric-properties module."""

import warnings

import numpy as np
import pytest

from repro.atoms import Structure
from repro.cli import main
from repro.config import get_settings
from repro.constants import BOHR_IN_ANGSTROM
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


class TestCountsAtParseTime:
    """A bad count exits 2 before any run: a negative ``--iterations``
    used to refresh ``status --watch`` forever (the ``0`` branch), and
    ``verify --ranks 0`` ran the whole H2 SCF + CPSCF, the invariants and
    the golden comparison before refusing."""

    @pytest.mark.parametrize("argv, kind", [
        (["status", "--watch", "--iterations", "-3"], "non-negative"),
        (["verify", "--molecule", "h2", "--ranks", "0"], "positive"),
        (["model", "--polyethylene", "8", "--ranks", "0"], "positive"),
        (["model", "--polyethylene", "8", "--ranks", "two"], "positive"),
    ], ids=["status-iterations", "verify-ranks", "model-ranks", "model-ranks-word"])
    def test_a_bad_count_exits_2_before_any_run(self, argv, kind, tmp_path,
                                                 monkeypatch, capsys):
        from repro.core import simulator

        def must_not_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(simulator, "run_physics", must_not_run)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"expected a {kind} integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
    """A missing file, non-finite and near-coincident nuclei are a
    GeometryError (exit 2 at the CLI), not a traceback, a GridError after a
    stream of RuntimeWarnings or an SCF that "converges" at +1e6 Ha."""

    @pytest.mark.parametrize("second, message", [
        ("0 0 0", "0 Bohr apart"),
        ("0 0 1e-7", "Bohr apart"),
        ("nan 0 0.7", "non-finite"),
        ("0 -inf 0.7", "non-finite"),
        (None, "geometry.in: No such file or directory"),
    ])
    def test_physics_exits_2(self, tmp_path, capsys, second, message):
        path = tmp_path / "geometry.in"
        if second is not None:
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

    def test_the_bound_is_a_quarter_of_covalent_radii(self, tmp_path, capsys):
        """H-H: 0.25 x (0.31 + 0.31) Angstrom = 0.293 Bohr, so H2 at its bond
        length passes and H2 at 0.2 or 1.02e-6 Bohr exits 2."""
        from repro.atoms.structure import reject_coincident_nuclei

        reject_coincident_nuclei(Structure(["H"] * 2, [[0, 0, 0], [0, 0, 1.4]]))
        path = tmp_path / "geometry.in"
        for d in (0.2, 1.02e-6):
            path.write_text(f"atom 0 0 0 H\natom 0 0 {d * BOHR_IN_ANGSTROM!r} H\n")
            assert main(["physics", str(path), "--level", "minimal"]) == 2
            err = capsys.readouterr().err
            assert f"atoms 0 (H) and 1 (H) are {d:.3g} Bohr apart, closer than 0.293" in err

    @pytest.mark.parametrize("pairwise_atoms", [0, 1000], ids=["cell-list", "pairwise"])
    def test_both_searches_name_the_first_close_pair(self, monkeypatch, pairwise_atoms):
        from repro.atoms import polyethylene
        from repro.atoms import structure as structure_module

        monkeypatch.setattr(structure_module, "_PAIRWISE_ATOMS", pairwise_atoms)
        chain = polyethylene(4)
        coords = np.vstack([chain.coords, chain.coords[20] + [3e-7, 0, 0], chain.coords[5] + [0, 4e-7, 0]])
        crowded = Structure(list(chain.symbols) + ["H", "H"], coords)
        symbol = chain.symbols[5]
        with pytest.raises(GeometryError, match=rf"atoms 5 \({symbol}\) and 27 \(H\) are 4e-07 Bohr"):
            structure_module.reject_coincident_nuclei(crowded)
        structure_module.reject_coincident_nuclei(chain)

    def test_submit_job_refuses_coincident_nuclei_before_the_journal(self, tmp_path):
        from repro.service import JobRequest, StateStore, submit_job

        journal = tmp_path / "journal.jsonl"
        store = StateStore(journal)
        h2 = Structure(["H"] * 2, [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-6]])
        with pytest.raises(GeometryError, match=r"atoms 0 \(H\) and 1 \(H\) are 1e-06 Bohr"):
            submit_job(store, JobRequest(h2, get_settings("minimal")))
        assert not store.tasks() and "1e-06" not in journal.read_text()

    def test_submit_exits_2_like_physics(self, tmp_path, capsys):
        path = tmp_path / "geometry.in"
        path.write_text(f"atom 0 0 0 H\natom 0 0 {1e-6 * BOHR_IN_ANGSTROM!r} H\n")
        journal = tmp_path / "store" / "journal.jsonl"
        errors = []
        for command in ("physics", "submit"):
            extra = ["--store", str(journal)] if command == "submit" else []
            assert main([command, str(path), "--level", "minimal", *extra]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "are 1e-06 Bohr apart" in errors[0]
        assert not journal.exists()
