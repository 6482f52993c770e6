"""Golden snapshots: committed records, guarded regeneration."""

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.config import get_settings
from repro.core import PerturbationSimulator
from repro.errors import GoldenUpdateError, VerificationError
from repro.verify import (
    GOLDEN_MOLECULES,
    compare_to_golden,
    compute_golden_record,
    golden_path,
    load_golden,
    record_from_run,
    save_golden,
)
from repro.verify.golden import FIELD_TOLERANCES, GOLDEN_DIR


class TestCommittedGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_MOLECULES))
    def test_golden_exists_and_loads(self, name):
        assert golden_path(name).exists()
        record = load_golden(name)
        assert set(FIELD_TOLERANCES) <= set(record)
        assert record["overlap"].ndim == 2
        assert record["polarizability"].shape == (3, 3)

    def test_h2_recomputation_matches_golden(self):
        report = compare_to_golden(
            "h2", compute_golden_record(hydrogen_molecule(), "minimal")
        )
        assert report.ok, report.render()
        assert len(report.results) == len(FIELD_TOLERANCES)

    def test_unknown_molecule_rejected(self):
        with pytest.raises(VerificationError, match="no golden record"):
            load_golden("benzene")

    def test_missing_golden_names_the_fix(self, tmp_path):
        with pytest.raises(VerificationError, match="--update-golden"):
            load_golden("h2", directory=tmp_path)


class TestRegressionDetection:
    @pytest.fixture(scope="class")
    def h2_record(self):
        return compute_golden_record(hydrogen_molecule(), level="minimal")

    def test_record_is_a_snapshot_of_run_physics(self, h2_record):
        """The golden pipeline is ``run_physics`` — pinned so the two
        cannot drift apart again."""
        structure = hydrogen_molecule()
        result = PerturbationSimulator(
            structure, get_settings("minimal")
        ).run_physics()
        direct = record_from_run(
            result.ground_state, result.polarizability, structure.n_electrons
        )
        assert set(direct) == set(h2_record)
        for name, value in direct.items():
            assert np.array_equal(value, h2_record[name]), name

    def test_tampered_field_is_named(self, h2_record):
        record = dict(h2_record)
        record["total_energy"] = record["total_energy"] + 1e-3
        report = compare_to_golden("h2", record)
        assert not report.ok
        assert report.failed_names == ["golden:h2/total_energy"]

    def test_shape_change_is_named(self, h2_record):
        record = dict(h2_record)
        record["eigenvalues"] = np.zeros(1)
        report = compare_to_golden("h2", record)
        failed = set(report.failed_names)
        assert "golden:h2/eigenvalues" in failed
        detail = {r.name: r.detail for r in report.failures}
        assert "shape" in detail["golden:h2/eigenvalues"]

    def test_within_tolerance_noise_passes(self, h2_record):
        record = dict(h2_record)
        record["density_matrix"] = record["density_matrix"] + 1e-9
        assert compare_to_golden("h2", record).ok


class TestUpdateGuard:
    def test_save_refuses_without_opt_in(self, tmp_path):
        record = load_golden("h2")
        with pytest.raises(GoldenUpdateError, match="--run-golden-update"):
            save_golden("h2", record, directory=tmp_path)
        assert not (tmp_path / "h2.npz").exists()

    def test_committed_dir_is_never_the_implicit_target(self):
        # The guard triggers before any path is opened, including the
        # committed package-data directory.
        record = load_golden("h2")
        mtime = golden_path("h2").stat().st_mtime_ns
        with pytest.raises(GoldenUpdateError):
            save_golden("h2", record)
        assert golden_path("h2").stat().st_mtime_ns == mtime
        assert GOLDEN_DIR.name == "golden_data"

    def test_loaded_record_can_be_resaved(self, tmp_path):
        """load_golden includes the meta keys; save_golden must strip
        them instead of colliding with its own level/molecule kwargs."""
        record = load_golden("h2")
        save_golden("h2", record, directory=tmp_path, allow_update=True)
        assert compare_to_golden("h2", load_golden("h2", directory=tmp_path)).ok

    def test_incomplete_record_rejected_even_with_opt_in(self, tmp_path):
        with pytest.raises(VerificationError, match="lacks fields"):
            save_golden(
                "h2",
                {"total_energy": np.array(0.0)},
                directory=tmp_path,
                allow_update=True,
            )

    def test_update_roundtrip(self, tmp_path, golden_update_enabled):
        """Only runs under ``pytest --run-golden-update``: regenerates a
        golden into a temp dir and verifies the roundtrip is exact."""
        record = compute_golden_record(hydrogen_molecule(), level="minimal")
        path = save_golden("h2", record, directory=tmp_path, allow_update=True)
        assert path.exists()
        report = compare_to_golden("h2", record, directory=tmp_path)
        assert report.ok
        assert all(r.residual == 0.0 for r in report.results)
