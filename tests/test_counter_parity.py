"""Counter parity: the host engine's and the screening mask's work, pinned.

Recorded at af18ca5, where a separate gate re-ran these two runs and
compared them against committed JSON baselines, 61 leaves in all (47 and
14).  Counters with ``==`` (the float ratios of the sparsity stats
included), modeled seconds at ``rel=1e-9``.  No clock is read: the
measured wall of these kernels is ``chain32_kernels`` in
``BENCHMARK.json``.

* **Water at** ``light``, 8 seeded Sumup + H sweeps on one substrate
  under two builders: ``warm`` (the host engine at its default
  block-cache budget, every block evaluated once) and ``cold`` (budget
  0, every block evaluated on every pass), plus the warm run's device
  bill on HPC#2.  The cold outputs must be bitwise the warm ones, and
  each regime must evaluate exactly the blocks it defines.
* **The 98-atom chain at** ``minimal``, ``threshold=1e-6``, 2 sweeps:
  dense against screened on one decomposition.  The screened outputs
  must stay within 1e-4 of the dense ones; the screened views'
  ``SparsityStats`` are pinned.
"""

import dataclasses

import numpy as np
import pytest

from repro.atoms import polyethylene, water
from repro.backends import BatchedBackend, device_bill
from repro.config import get_settings
from repro.dft.hamiltonian import MatrixBuilder, build_substrate

#: Seed of the random density matrix and potential the sweeps contract.
SEED = 2023

#: The water run: its parameters and size.
WATER = {"level": "light", "n_sweeps": 8, "n_points": 4600, "n_basis": 21}

#: Each row's ``BackendProfile.as_dict()`` without the phases' seconds.
PROFILES = {
    "warm": {
        "backend": "numpy",
        "cache": {"hits": 45, "max_bytes": 320000000, "misses": 3, "peak_bytes": 772800},
        "grid": {"atoms": 3, "basis": 21, "batches": 32, "pass_elements": 96600, "points": 4600},
        "phases": {
            "H": {"calls": 8, "elements": 772800},
            "Sumup": {"calls": 8, "elements": 772800},
            "basis": {"calls": 32, "elements": 96600},
        },
        "sparsity": {"blocks_evaluated": 0, "blocks_skipped": 0},
        "views": {"count": 3, "padded_fraction": 0.0},
    },
    "cold": {
        "backend": "numpy",
        "cache": {"hits": 0, "max_bytes": 0, "misses": 48, "peak_bytes": 0},
        "grid": {"atoms": 3, "basis": 21, "batches": 32, "pass_elements": 96600, "points": 4600},
        "phases": {
            "H": {"calls": 8, "elements": 772800},
            "Sumup": {"calls": 8, "elements": 772800},
            "basis": {"calls": 512, "elements": 1545600},
        },
        "sparsity": {"blocks_evaluated": 0, "blocks_skipped": 0},
        "views": {"count": 3, "padded_fraction": 0.0},
    },
}

#: The warm run's ``DeviceBill``: its counters, then its modeled seconds
#: (the whole bill and each billed phase).
DEVICE_BILL = {
    "machine": "HPC#2 (AMD MI50 GPUs)",
    "launches": 16,
    "bytes_transferred": 1777472,
}
DEVICE_SECONDS = {
    "total": 0.00637568239775,
    "H": 0.00380369080825,
    "Sumup": 0.0025719915895,
}

#: The chain run: its parameters and size.
CHAIN = {
    "n_units": 16, "n_atoms": 98, "level": "minimal", "threshold": 1e-6,
    "n_sweeps": 2, "n_points": 49920, "n_basis": 682,
}

#: The screened views' ``SparsityStats``: its counts and its two ratios.
SPARSITY = {
    "blocks_active": 27853,
    "blocks_relevant": 27853,
    "block_reduction": 1.0,
    "elements_active": 9205850,
    "elements_relevant": 9517527,
    "fill_fraction": 0.9672523124967232,
}


def sweep(builder, n_sweeps):
    """``n_sweeps`` Sumup + H passes on seeded inputs: (density, potential)."""
    rng = np.random.default_rng(SEED)
    nb = builder.basis.n_basis
    p = rng.normal(size=(nb, nb))
    p = p + p.T
    v = rng.normal(size=builder.grid.n_points)
    for _ in range(n_sweeps):
        density = builder.backend.density_on_grid(p)
        potential = builder.potential_matrix(v)
    return density, potential


@pytest.fixture(scope="module")
def water_run():
    """(builders, outputs) of the warm and cold rows on one substrate."""
    sub = build_substrate(water(), get_settings(WATER["level"]).grids)
    builders = {
        row: MatrixBuilder(sub.basis, sub.grid, batches=sub.batches, backend=engine)
        for row, engine in (
            ("warm", BatchedBackend()), ("cold", BatchedBackend(max_cache_bytes=0)),
        )
    }
    outputs = {row: sweep(b, WATER["n_sweeps"]) for row, b in builders.items()}
    return builders, outputs


@pytest.fixture(scope="module")
def chain_run():
    """(structure, screened builder, outputs) of the dense and screened rows."""
    structure = polyethylene(CHAIN["n_units"])
    sub = build_substrate(structure, get_settings(CHAIN["level"]).grids)
    builders = {
        "dense": MatrixBuilder(sub.basis, sub.grid, batches=sub.batches),
        "screened": MatrixBuilder(
            sub.basis, sub.grid, batches=sub.batches,
            screening_threshold=CHAIN["threshold"],
        ),
    }
    outputs = {row: sweep(b, CHAIN["n_sweeps"]) for row, b in builders.items()}
    return structure, builders["screened"], outputs


class TestWater:
    def test_cold_outputs_are_bitwise_the_warm_ones(self, water_run):
        _, outputs = water_run
        for warm, cold in zip(outputs["warm"], outputs["cold"]):
            assert np.array_equal(warm, cold)

    def test_each_regime_evaluates_the_blocks_it_defines(self, water_run):
        """One Sumup and one H pass per sweep, each looking up every view:
        warm evaluates each view once, cold on every pass."""
        builders, _ = water_run
        views = builders["warm"].views
        for row, passes in (("warm", 1), ("cold", 2 * WATER["n_sweeps"])):
            profile = builders[row].backend.profile
            assert profile.phases["basis"].calls == passes * views.n_batches, row
            assert profile.cache_misses == passes * len(views), row

    def test_size_equals_the_recorded(self, water_run):
        builders, _ = water_run
        grid, basis = builders["warm"].grid, builders["warm"].basis
        assert (grid.n_points, basis.n_basis) == (WATER["n_points"], WATER["n_basis"])

    @pytest.mark.parametrize("row", sorted(PROFILES))
    def test_profile_equals_the_recorded(self, water_run, row):
        builders, _ = water_run
        profile = builders[row].backend.profile.as_dict()
        for stats in profile["phases"].values():
            del stats["seconds"]
        assert profile == PROFILES[row]

    def test_device_bill_equals_the_recorded(self, water_run):
        builders, _ = water_run
        bill = device_bill(builders["warm"].backend.profile)
        assert {
            "machine": bill.machine,
            "launches": bill.launches,
            "bytes_transferred": bill.bytes_transferred,
        } == DEVICE_BILL
        seconds = {"total": bill.modeled_seconds, **bill.phases}
        assert seconds.keys() == DEVICE_SECONDS.keys()
        assert seconds == pytest.approx(DEVICE_SECONDS, rel=1e-9, abs=0.0)


class TestChain:
    def test_screened_outputs_stay_within_the_physics_tolerance(self, chain_run):
        _, _, outputs = chain_run
        for dense, screened in zip(outputs["dense"], outputs["screened"]):
            assert np.abs(dense - screened).max() <= 1e-4

    def test_size_equals_the_recorded(self, chain_run):
        structure, screened, _ = chain_run
        assert (structure.n_atoms, screened.grid.n_points, screened.basis.n_basis) == (
            CHAIN["n_atoms"], CHAIN["n_points"], CHAIN["n_basis"],
        )

    def test_sparsity_equals_the_recorded(self, chain_run):
        _, screened, _ = chain_run
        stats = screened.views.stats
        assert {
            **dataclasses.asdict(stats),
            "block_reduction": stats.block_reduction,
            "fill_fraction": stats.fill_fraction,
        } == SPARSITY
