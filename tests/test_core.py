"""Workload summaries, phase model and the PerturbationSimulator."""

import numpy as np
import pytest

from repro.atoms import polyethylene, water
from repro.config import get_settings
from repro.core import (
    OptimizationFlags,
    PerturbationSimulator,
    synthetic_batches,
)
from repro.core.workload import build_workload
from repro.errors import ExperimentError
from repro.runtime import HPC1_SUNWAY, HPC2_AMD


@pytest.fixture(scope="module")
def chain_sim():
    """602-atom chain simulator with batches prebuilt."""
    sim = PerturbationSimulator(polyethylene(100), get_settings("light"))
    _ = sim.batches
    return sim


class TestFlags:
    def test_all_and_none(self):
        assert OptimizationFlags.all().locality_mapping
        off = OptimizationFlags.none()
        assert not any(
            (
                off.locality_mapping,
                off.packed_comm,
                off.hierarchical_comm,
                off.kernel_fusion,
                off.indirect_elimination,
                off.loop_collapse,
            )
        )

    def test_but(self):
        f = OptimizationFlags.all().but(packed_comm=False)
        assert not f.packed_comm and f.locality_mapping


class TestWorkload:
    def test_quantities_anchor_to_structure(self):
        w = build_workload(polyethylene(10), get_settings("light"))
        assert w.n_atoms == 62
        assert w.n_basis == 20 * 11 + 42 * 5
        assert w.structure.n_electrons == 20 * 6 + 42
        assert w.n_grid_points == int(w.points_per_atom.sum())
        assert w.rho_multipole_rows == 62
        assert w.rho_multipole_row_bytes > 0

    def test_synthetic_batches_conserve_points(self):
        w = build_workload(polyethylene(10), get_settings("light"))
        batches = synthetic_batches(w, target_points=200)
        assert sum(b.n_points for b in batches) == w.n_grid_points
        assert all(b.n_points <= 200 for b in batches)

    def test_synthetic_batches_single_owner(self):
        w = build_workload(polyethylene(5), get_settings("light"))
        for b in synthetic_batches(w, target_points=150):
            assert len(b.owner_atoms) == 1
            assert set(b.owner_atoms) <= set(b.relevant_atoms)


class TestRunModel:
    def test_report_structure(self, chain_sim):
        rep = chain_sim.run_model(HPC2_AMD, 8)
        assert set(rep.per_cycle_seconds) == {"DM", "Sumup", "Rho", "H", "Comm"}
        assert rep.cycle_seconds > 0
        assert rep.init_seconds > 0
        assert rep.memory_per_rank_bytes > 0
        assert rep.points_per_rank > 0

    def test_optimized_beats_baseline(self, chain_sim):
        for machine in (HPC1_SUNWAY, HPC2_AMD):
            t_opt = chain_sim.run_model(machine, 8).cycle_seconds
            t_base = chain_sim.run_model(
                machine, 8, OptimizationFlags.none()
            ).cycle_seconds
            assert t_opt < t_base

    def test_locality_cuts_memory(self, chain_sim):
        opt = chain_sim.run_model(HPC2_AMD, 16)
        base = chain_sim.run_model(HPC2_AMD, 16, OptimizationFlags.none())
        assert opt.memory_per_rank_bytes < base.memory_per_rank_bytes

    def test_more_ranks_shrink_cycle(self, chain_sim):
        t8 = chain_sim.run_model(HPC2_AMD, 8).cycle_seconds
        t32 = chain_sim.run_model(HPC2_AMD, 32).cycle_seconds
        assert t32 < t8

    def test_cpu_only_slower_than_gpu(self, chain_sim):
        gpu = chain_sim.run_model(HPC2_AMD, 16).cycle_seconds
        cpu = chain_sim.run_model(HPC2_AMD, 16, use_accelerator=False).cycle_seconds
        assert cpu > gpu

    def test_too_many_ranks_rejected(self, chain_sim):
        with pytest.raises(ExperimentError):
            chain_sim.run_model(HPC2_AMD, 10**6)

    def test_assignments_cached(self, chain_sim):
        a1 = chain_sim.assignment(8, True)
        a2 = chain_sim.assignment(8, True)
        assert a1 is a2


class TestRunPhysics:
    def test_water_end_to_end(self, minimal_settings):
        sim = PerturbationSimulator(water(), minimal_settings)
        result = sim.run_physics()
        assert result.ground_state.total_energy < -70.0
        alpha = result.polarizability
        assert np.allclose(alpha, alpha.T, atol=1e-3)
        assert np.linalg.eigvalsh(alpha).min() > 0
        assert set(result.phase_seconds) >= {"DM", "Sumup", "Rho", "H"}
        assert len(result.cpscf_iterations_per_direction) == 3
        # The tensor is read off the retained responses, not recomputed.
        assert [r.direction for r in result.responses] == [0, 1, 2]
        columns = [
            r.polarizability_column(result.ground_state.dipoles)
            for r in result.responses
        ]
        assert np.array_equal(np.column_stack(columns), alpha)
