"""Two-core view sweeps: the caller plus one helper thread, bit for bit.

Every Sumup / H sweep runs through :func:`repro.backends.sweep.ordered_sweep`:
the calling thread walks the views and gets each block, the helper runs
kernels only, and results are committed in view order.  These tests pin
that the helper path is the inline loop's outputs, cache traffic,
profile rows and obs counters exactly, on every engine.

Tier-1 runs with BLAS unpinned, where the real width is 1, so the
``two_core`` helper here forces width 2 and no element floor by patching
the sweep module's private constants, and ``one_core`` forces the inline
loop.  ``make smoke`` also runs this file with BLAS pinned to one
thread, where the width the module derives itself is 2 on a two-core
machine.
"""

import contextlib
import functools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.atoms import polyethylene, water
from repro.backends import BatchedBackend, Factored, device_bill
from repro.backends import base as base_module
from repro.backends import sweep
from repro.config import get_settings
from repro.dfpt.response import DFPTSolver
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.scf import SCFDriver
from repro.obs.tracer import Tracer, activate

MODES = ("dense", "screened", "stream", "device")


@contextlib.contextmanager
def two_core():
    """Sweeps on the caller plus the helper, whatever the machine's pins."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_WIDTH", 2)
        mp.setattr(sweep, "_SWEEP_ELEMENTS", 0)
        yield


@contextlib.contextmanager
def one_core():
    """The inline loop, whatever the machine's pins."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_WIDTH", 1)
        yield


@contextlib.contextmanager
def kernel_threads():
    """Record the name of every thread that leases a kernel's scratch."""
    names = []

    def leasing(shape):
        names.append(threading.current_thread().name)
        return lease(shape)

    lease = base_module.scratch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base_module, "scratch", leasing)
        yield names


def _on_helper(names):
    return sum(name.startswith("repro-sweep") for name in names)


@functools.lru_cache(maxsize=None)
def _substrate(name="chain26"):
    structure = polyethylene(4) if name == "chain26" else water()
    return build_substrate(structure, get_settings("minimal").grids)


def _builder(mode, name="chain26"):
    """A fresh builder (fresh cache and profile) on a shared substrate;
    ``device`` is the dense run, whose profile the tests also bill."""
    sub = _substrate(name)
    table_bytes = 8 * sub.grid.n_points * sub.basis.n_basis
    kwargs = {
        "dense": dict(backend="numpy"),
        "screened": dict(backend="numpy", screening_threshold=1e-6),
        "stream": dict(backend=BatchedBackend(max_cache_bytes=table_bytes // 4)),
        "device": dict(backend="numpy"),
    }[mode]
    return MatrixBuilder(sub.basis, sub.grid, batches=sub.batches, **kwargs)


def _inputs(builder, seed=38):
    rng = np.random.default_rng(seed)
    nb, n = builder.basis.n_basis, builder.grid.n_points
    p = rng.normal(size=(nb, nb))
    return {
        "p": p + p.T,
        "one": Factored(rng.normal(size=(nb, 1))),
        "three": Factored(rng.normal(size=(nb, 3)), rng.normal(size=(nb, 3))),
        "wide": Factored(rng.normal(size=(3, nb, 3)), rng.normal(size=(nb, 3))),
        "v": rng.normal(size=n),
        "v3": rng.normal(size=(n, 3)),
    }


def _sweeps(builder):
    """Every sweep shape once: the dense-P quadratic form, Factored with
    one and with three columns, three densities against one right, one
    potential and three."""
    backend, x = builder.backend, _inputs(builder)
    out = {
        f"sumup.{key}": backend.density_on_grid(x[key])
        for key in ("p", "one", "three", "wide")
    }
    out["h.v"] = backend.potential_matrix(x["v"])
    out["h.v3"] = backend.potential_matrix(x["v3"])
    return out


@functools.lru_cache(maxsize=None)
def _run(mode, helper):
    """One fresh builder through :func:`_sweeps` twice (cold, then warm)
    under an active tracer; returns outputs, profile, tracer and the
    kernels' threads."""
    builder = _builder(mode)
    with (two_core() if helper else one_core()), kernel_threads() as names:
        with activate(Tracer()) as tracer:
            cold, warm = _sweeps(builder), _sweeps(builder)
    return cold, warm, builder.backend.profile, tracer, tuple(names)


@pytest.mark.parametrize("mode", MODES)
class TestTheHelperSweepIsTheInlineSweep:
    def test_outputs_are_array_equal(self, mode):
        inline, helper = _run(mode, False), _run(mode, True)
        for got, want in zip(helper[:2], inline[:2]):
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), key
        assert _on_helper(helper[4]) > 0 and _on_helper(inline[4]) == 0

    def test_profile_counters_are_equal(self, mode):
        (*_, want, _, _), (*_, got, _, _) = _run(mode, False), _run(mode, True)
        assert got.cache_misses > 0
        for name in (
            "cache_hits", "cache_misses", "cache_peak_bytes",
            "screen_blocks_evaluated", "screen_blocks_skipped",
        ):
            assert getattr(got, name) == getattr(want, name), name
        if mode == "device":
            # The bill prices the counters alone, so it cannot tell the
            # two sweeps apart either.
            assert device_bill(got) == device_bill(want)
            assert device_bill(got).launches == RUN_PASSES
        assert got.phases.keys() == want.phases.keys()
        for phase, stats in want.phases.items():
            assert (got.phases[phase].calls, got.phases[phase].elements) == (
                stats.calls, stats.elements
            ), phase

    def test_trace_counters_and_spans_are_equal(self, mode):
        want, got = _run(mode, False)[3], _run(mode, True)[3]
        assert [s.name for s in got.spans] == [s.name for s in want.spans]
        assert got.spans  # the spans were recorded at all


def _block_bytes(view):
    return 8 * view.point_indices.size * view.cols.size


#: Sweeps per :func:`_run`: :func:`_sweeps` twice, six sweeps each.
RUN_PASSES = 2 * 6


def test_stream_warm_passes_hit_exactly_the_resident_views():
    """The stream cache is over its budget: the views that fit, first fit
    in sweep order, are resident, every later pass hits
    exactly them, and the helper sweep counts what the inline one does."""
    builder = _builder("stream")
    free, n_resident = builder.backend.max_cache_bytes, 0
    for view in builder.views:
        if _block_bytes(view) <= free:
            free, n_resident = free - _block_bytes(view), n_resident + 1
    n_views = len(builder.views)
    assert 0 < n_resident < n_views
    for helper in (False, True):
        profile = _run("stream", helper)[2]
        assert profile.cache_misses == n_views + (RUN_PASSES - 1) * (n_views - n_resident)
        assert profile.cache_hits == (RUN_PASSES - 1) * n_resident


class TestFailures:
    def _raising_on(self, on_helper):
        gram = base_module.weighted_gram

        def failing(phi, wv, work):
            if threading.current_thread().name.startswith("repro-sweep") == on_helper:
                raise FloatingPointError("kernel failed")
            return gram(phi, wv, work)

        return failing

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_failing_kernel_raises_on_the_caller_and_the_next_sweep_runs(
        self, where, monkeypatch
    ):
        builder = _builder("dense")
        v = _inputs(builder)["v"]
        with one_core():
            want = builder.backend.potential_matrix(v)
        with two_core():
            with monkeypatch.context() as mp:
                mp.setattr(base_module, "weighted_gram", self._raising_on(where == "helper"))
                with pytest.raises(FloatingPointError, match="kernel failed"):
                    builder.backend.potential_matrix(v)
            assert np.array_equal(builder.backend.potential_matrix(v), want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self):
        builder = _builder("dense")
        v = _inputs(builder)["v"]
        with one_core():
            want = builder.backend.potential_matrix(v)
        with two_core():
            builder.backend.potential_matrix(v)
            assert sweep._helper is not None
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child reports by exit code
                code = 1
                try:
                    dropped = sweep._helper is None
                    same = np.array_equal(builder.backend.potential_matrix(v), want)
                    code = 0 if dropped and same and sweep._helper is not None else 1
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 120
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    pytest.fail("forked child hung")
                time.sleep(0.05)
            assert os.waitstatus_to_exitcode(done[1]) == 0


def test_commits_keep_view_order_under_contention():
    """Three callers share the one helper with the switch interval at
    1 us: each sweep commits its own kernels' results in its view order."""
    failures, views = [], list(range(200))

    def one_caller(seed):
        got = []
        sweep.ordered_sweep(
            views, 1 << 40,
            lambda v: np.full(64, float(v + seed)),
            lambda v, a: float(a @ a),
            lambda v, r: got.append((v, r)),
        )
        if got != [(v, 64.0 * (v + seed) ** 2) for v in views]:
            failures.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with two_core():
            callers = [threading.Thread(target=one_caller, args=(s,)) for s in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not failures


class TestWhenTheHelperRuns:
    @pytest.mark.parametrize(
        "cores, pins, width",
        [
            (2, {}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (2, {"MKL_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            (8, {"OMP_NUM_THREADS": "4"}, 2),
            (4, {"OMP_NUM_THREADS": "16"}, 1),
            (8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
            (2, {"OMP_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 2),
            (2, {"OMP_NUM_THREADS": "auto"}, 1),
        ],
    )
    def test_the_width_is_cores_over_blas_threads(self, cores, pins, width):
        assert sweep.sweep_width(cores, pins) == width

    def test_the_process_width_comes_from_its_affinity_and_pins(self):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert sweep._WIDTH == sweep.sweep_width(cores, os.environ)

    def test_sweeps_under_the_element_floor_stay_inline(self, monkeypatch):
        monkeypatch.setattr(sweep, "_WIDTH", 2)
        builder = _builder("dense", "water")
        assert builder.views.elements < sweep._SWEEP_ELEMENTS
        with kernel_threads() as names:
            _sweeps(builder)
        assert names and _on_helper(names) == 0

    def test_a_chain_sweep_is_over_the_floor(self):
        builder = _builder("dense")
        assert builder.views.elements >= sweep._SWEEP_ELEMENTS and len(builder.views) >= 2


def _physics(structure, directions):
    settings = get_settings("minimal")
    gs = SCFDriver(structure, settings).run()
    responses = DFPTSolver(gs, settings.cpscf).solve_all() if directions == 3 else [
        DFPTSolver(gs, settings.cpscf).solve_direction(0)
    ]
    alpha = np.array([r.polarizability_column(gs.dipoles) for r in responses])
    return gs.total_energy, alpha, gs.iterations, [r.iterations for r in responses]


@pytest.mark.parametrize("name", ["water", "chain26"])
def test_scf_and_cpscf_are_identical_with_the_helper_on_and_off(name):
    structure, directions = (water(), 3) if name == "water" else (polyethylene(4), 1)
    with one_core():
        e, alpha, scf_its, cpscf_its = _physics(structure, directions)
    with two_core(), kernel_threads() as names:
        got = _physics(structure, directions)
    # Water is one view: a sweep of fewer than two stays inline.
    assert (_on_helper(names) > 0) == (name == "chain26")
    assert got[0] == e and np.array_equal(got[1], alpha)
    assert (got[2], got[3]) == (scf_its, cpscf_its)
