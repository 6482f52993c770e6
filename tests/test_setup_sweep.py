"""One set-up sweep: ``kinetic`` fills the block cache, S / V_ext / D are
one k = 5 H sweep.

``MatrixBuilder.kinetic`` runs as a two-core view sweep whose kernel
evaluates each view's values along with its gradients; the commit offers
that value block to the backend's block cache.  ``SCFDriver`` then builds
S, V_ext and D with one ``potential_matrix`` call of five columns over
the cached blocks.  These tests pin that nothing observable moved: the
driver's matrices are the separate calls' (and the serial kinetic loop's)
bit for bit, the cache after set-up is the cache a cold ``overlap()``
fill leaves, and every backend mutation still corrupts S / V_ext / D
exactly as before while T stays honest.  Each runs with the sweep helper
on and off (the ``two_core`` / ``one_core`` switches of
``tests/test_view_sweep.py``).
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.atoms import polyethylene, water
from repro.backends import BatchedBackend
from repro.config import get_settings
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.scf import SCFDriver
from repro.verify.mutations import BACKEND_MUTATIONS, MutantBackend
from tests.setup_oracles import serial_kinetic_oracle
from tests.test_view_sweep import one_core, two_core

MODES = ("dense", "screened", "stream", "device")
SCREENING = 1e-6


@functools.lru_cache(maxsize=None)
def _substrate(name):
    structure = polyethylene(4) if name == "chain26" else water()
    return structure, build_substrate(structure, get_settings("minimal").grids)


def _backend(mode, name):
    """A fresh backend of *mode*; ``stream`` holds a quarter of the table."""
    _, sub = _substrate(name)
    if mode == "stream":
        return BatchedBackend(max_cache_bytes=8 * sub.grid.n_points * sub.basis.n_basis // 4)
    return "device" if mode == "device" else "numpy"


def _screening(mode):
    return SCREENING if mode == "screened" else 0.0


def _builder(mode, name, backend=None):
    _, sub = _substrate(name)
    return MatrixBuilder(
        sub.basis, sub.grid, batches=sub.batches,
        backend=_backend(mode, name) if backend is None else backend,
        screening_threshold=_screening(mode),
    )


def _driver(mode, name, backend=None):
    structure, sub = _substrate(name)
    settings = replace(get_settings("minimal"), screening_threshold=_screening(mode))
    return SCFDriver(
        structure, settings,
        backend=_backend(mode, name) if backend is None else backend,
        basis=sub.basis, grid=sub.grid, batches=sub.batches,
    )


def _separate_calls(builder):
    """S, V_ext and D as one sweep each (D one per coordinate), the way
    the driver built them before the set-up sweep."""
    points = builder.grid.points
    return (
        builder.overlap(),
        builder.nuclear_attraction(),
        np.array([builder.potential_matrix(points[:, j]) for j in range(3)]),
    )


def _helper(on):
    return two_core() if on else one_core()


#: Water is one view, so its sweeps stay inline with the helper on too.
SYSTEMS = pytest.mark.parametrize(
    "name, helper", [("water", False), ("chain26", False), ("chain26", True)],
    ids=["water", "chain26-inline", "chain26-helper"],
)


@SYSTEMS
@pytest.mark.parametrize("mode", MODES)
class TestDriverMatricesAreTheSeparateCalls:
    def test_s_t_v_ext_and_d_are_array_equal(self, mode, name, helper):
        with _helper(helper):
            driver = _driver(mode, name)
        reference = _builder(mode, name)
        with one_core():
            s, v_ext, dipoles = _separate_calls(reference)
            t = serial_kinetic_oracle(reference)
        assert np.array_equal(driver._s, s)
        assert np.array_equal(driver._t, t)
        assert np.array_equal(driver._v_ext, v_ext)
        assert np.array_equal(driver._dipoles, dipoles)
        assert driver._dipoles.shape == (3, *s.shape)


def _cache_state(backend):
    cache = backend.cache
    basis = backend.profile.phases["basis"]
    return (
        list(cache._blocks),
        (basis.calls, basis.elements),
        (cache.misses, cache.evictions, cache.current_bytes, cache.peak_bytes),
        (
            backend.profile.cache_misses, backend.profile.cache_evictions,
            backend.profile.cache_peak_bytes,
        ),
    )


@SYSTEMS
@pytest.mark.parametrize("mode", MODES)
def test_the_cache_after_kinetic_is_a_cold_overlap_fill(mode, name, helper):
    swept, filled = _builder(mode, name), _builder(mode, name)
    with _helper(helper):
        swept.kinetic()
    with one_core():
        filled.overlap()
    assert _cache_state(swept.backend) == _cache_state(filled.backend)
    assert swept.backend.cache.hits == swept.backend.profile.cache_hits == 0
    for key, block in filled.backend.cache._blocks.items():
        assert np.array_equal(swept.backend.cache._blocks[key], block)
    # Water is one view as large as the table: a quarter budget keeps none.
    assert len(swept.backend.cache) > 0 or (mode, name) == ("stream", "water")


def test_an_offered_block_already_cached_is_left_alone():
    builder = _builder("dense", "water")
    builder.overlap()
    backend = builder.backend
    before = _cache_state(backend), backend.cache.hits
    view = next(iter(builder.views))
    kept = backend.cache._blocks[next(iter(backend.cache._blocks))]
    backend.offer_block(view, np.zeros_like(kept), 1.0)
    assert (_cache_state(backend), backend.cache.hits) == before
    assert np.array_equal(backend.basis_block(view), builder.evaluate_view(view))


@pytest.mark.parametrize("helper", [False, True], ids=["inline", "helper"])
@pytest.mark.parametrize("mode", ["dense", "screened", "device"])
def test_set_up_and_the_first_scf_sumup_read_only_cached_blocks(mode, helper):
    with _helper(helper):
        driver = _driver(mode, "chain26")
        profile, n_views = driver.backend.profile, len(driver.builder.views)
        # One cold fill by kinetic, then one k = 5 H sweep of hits.
        assert (profile.cache_misses, profile.cache_hits) == (n_views, n_views)
        assert profile.phases["H"].calls == 1
        assert profile.phases["basis"].calls == sum(
            len(view.batches) for view in driver.builder.views
        )
        cycles = driver.iter_cycles()
        next(cycles)
        cycles.close()
    assert profile.cache_misses == n_views
    assert profile.cache_hits == 3 * n_views  # + the cycle's Sumup and H


@pytest.mark.parametrize("mutation", BACKEND_MUTATIONS)
def test_each_mutation_moves_s_v_ext_and_d_as_before_and_leaves_t_honest(mutation):
    # Screened, so `overscreened_block` bites; water, one view, runs inline.
    driver = _driver("screened", "water", backend=MutantBackend(mutation))
    mutant = _builder("screened", "water", backend=MutantBackend(mutation))
    s, v_ext, dipoles = _separate_calls(mutant)
    honest = _builder("screened", "water")
    t = serial_kinetic_oracle(honest)
    honest_s, _, _ = _separate_calls(honest)
    assert np.array_equal(driver._s, s)
    assert np.array_equal(driver._v_ext, v_ext)
    assert np.array_equal(driver._dipoles, dipoles)
    assert np.array_equal(driver._t, t)
    # Block corruptions show in S; the stale density only in Sumup.
    assert np.array_equal(driver._s, honest_s) == (mutation == "stale_dm_snapshot")
