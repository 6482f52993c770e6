"""Timers, report formatting and linear-algebra helpers."""

import numpy as np
import pytest

from repro.utils.linalg import (
    density_matrix_from_orbitals,
    lowdin_orthogonalization,
    solve_generalized_eigenproblem,
    symmetrize,
)
from repro.utils.reports import TableFormatter, format_bytes, format_seconds
from repro.utils.timing import PhaseTimer


class TestTiming:
    def test_phase_timer_accumulates(self):
        t = PhaseTimer()
        with t.phase("a"):
            pass
        with t.phase("a"):
            pass
        assert t.visits("a") == 2
        assert t.total("a") >= 0.0

    def test_phase_timer_add(self):
        t = PhaseTimer()
        t.add("x", 1.0)
        t.add("x", 2.0, visits=2)
        t.add("y", 3.0)
        assert t.total("x") == pytest.approx(3.0) and t.visits("x") == 3
        assert t.as_dict() == {"x": 3.0, "y": 3.0}

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_unknown_phase_is_zero(self):
        assert PhaseTimer().total("nope") == 0.0


class TestReports:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024**2) == "3.0 MB"

    def test_format_seconds_units(self):
        assert "us" in format_seconds(5e-6)
        assert "ms" in format_seconds(5e-3)
        assert format_seconds(5.0).endswith(" s")
        assert "min" in format_seconds(300.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-1.0)

    def test_table_renders_all_rows(self):
        t = TableFormatter(["a", "bb"], title="T")
        t.add_row([1, "x"])
        t.add_row([22, "yyy"])
        out = t.render()
        assert "T" in out and "22" in out and "yyy" in out

    def test_table_rejects_wrong_width(self):
        t = TableFormatter(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])


class TestLinalg:
    def test_symmetrize(self, rng):
        a = rng.normal(size=(5, 5))
        s = symmetrize(a)
        assert np.allclose(s, s.T)

    def test_symmetrize_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))

    def test_lowdin_orthogonalizes(self, rng):
        m = rng.normal(size=(6, 6))
        s = m @ m.T + 6 * np.eye(6)
        x = lowdin_orthogonalization(s)
        assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-10)

    def test_generalized_eigenproblem_solves_pencil(self, rng):
        m = rng.normal(size=(8, 8))
        s = m @ m.T + 8 * np.eye(8)
        h = symmetrize(rng.normal(size=(8, 8)))
        eps, c = solve_generalized_eigenproblem(h, s)
        assert np.all(np.diff(eps) >= -1e-12)  # ascending
        for k in range(len(eps)):
            assert np.allclose(h @ c[:, k], eps[k] * s @ c[:, k], atol=1e-8)

    def test_density_matrix_idempotent_in_overlap_metric(self, rng):
        m = rng.normal(size=(6, 6))
        s = m @ m.T + 6 * np.eye(6)
        h = symmetrize(rng.normal(size=(6, 6)))
        eps, c = solve_generalized_eigenproblem(h, s)
        f = np.zeros(len(eps))
        f[:2] = 2.0
        p = density_matrix_from_orbitals(c, f)
        # P S P = 2 P for f = 2 occupancy.
        assert np.allclose(p @ s @ p, 2.0 * p, atol=1e-8)

    def test_density_matrix_rejects_mismatch(self, rng):
        c = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            density_matrix_from_orbitals(c, np.ones(2))
