"""Micro-benchmarks of the real computational substrates.

Unlike the figure benches (which exercise the scale models), these time
the actual numerics: spline evaluation, spherical harmonics, basis
evaluation, the multipole Poisson solve, one CPSCF iteration and the
executable reduction schemes.
"""

import numpy as np
import pytest

from repro.atoms import water
from repro.basis import CubicSpline, build_basis, real_spherical_harmonics
from repro.comm import BaselineRowwiseAllreduce, PackedAllreduce
from repro.config import get_settings
from repro.dfpt import DFPTSolver
from repro.dft import MultipoleSolver, SCFDriver
from repro.grids import build_grid
from repro.runtime import HPC1_SUNWAY, SimCluster


@pytest.fixture(scope="module")
def water_gs():
    return SCFDriver(water(), get_settings("minimal")).run()


def test_bench_spline_evaluation(benchmark):
    rng = np.random.default_rng(0)
    spline = CubicSpline(np.linspace(0, 10, 320), rng.normal(size=(320, 49)))
    t = rng.uniform(0, 10, 20000)
    out = benchmark(spline, t)
    assert out.shape == (20000, 49)


def test_bench_spherical_harmonics(benchmark):
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(20000, 3))
    out = benchmark(real_spherical_harmonics, dirs, 6)
    assert out.shape == (20000, 49)


def test_bench_basis_evaluation(benchmark):
    basis = build_basis(water())
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(5000, 3)) * 2.0
    out = benchmark(basis.evaluate, pts)
    assert out.shape == (5000, 21)


def test_bench_multipole_poisson(benchmark, water_gs):
    solver = water_gs.solver
    density = water_gs.density
    out = benchmark(solver.hartree_potential, density)
    assert out.shape == (water_gs.grid.n_points,)


def test_bench_density_on_grid(benchmark, water_gs):
    out = benchmark(
        water_gs.builder.backend.density_on_grid, water_gs.density_matrix
    )
    assert out.shape == (water_gs.grid.n_points,)


def test_bench_cpscf_direction(benchmark, water_gs):
    settings = get_settings("minimal").cpscf
    result = benchmark.pedantic(
        lambda: DFPTSolver(water_gs, settings).solve_direction(2),
        iterations=1,
        rounds=3,
    )
    assert result.iterations >= 1


def test_bench_reduction_baseline_vs_packed(benchmark):
    """Executable reduction over real buffers (16 ranks, 200 rows)."""
    rng = np.random.default_rng(3)
    cluster = SimCluster(HPC1_SUNWAY, 16)
    data = [rng.normal(size=(200, 64)) for _ in range(16)]

    def run():
        out_b = BaselineRowwiseAllreduce().reduce(cluster, data)
        out_p = PackedAllreduce(rows_cap=50).reduce(cluster, data)
        return out_b, out_p

    out_b, out_p = benchmark(run)
    assert np.array_equal(out_b, out_p)
