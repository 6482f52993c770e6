"""Two-core sweeps: the caller plus one helper thread, bit for bit.

Every Sumup / H sweep runs through :func:`repro.backends.sweep.ordered_sweep`:
the calling thread walks the views and gets each block, both threads
claim kernels from one queue, oldest first, and results are committed
in view order.  The Hartree solver's back-interpolation is the same
sweep over atoms.  These tests pin that the two-core path is the inline
loop's outputs, cache traffic, profile rows and obs counters exactly,
on every engine, the Hartree potential byte for byte, and the queue's
own rules on fake blocks and kernels:
both threads work, the caller holds at most ``_LOOKAHEAD`` views in
flight, commits keep view order, and an error on either thread reaches
the caller and leaves the helper idle.

Tier-1 runs with BLAS unpinned, where the real width is 1, so the
``two_core`` helper here forces width 2 and no element floor by patching
the sweep module's private constants, and ``one_core`` forces the inline
loop.  ``make smoke`` also runs this file with BLAS pinned to one
thread, where the width the module derives itself is 2 on a two-core
machine.
"""

import contextlib
import dataclasses
import functools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule, polyethylene, water
from repro.backends import BatchedBackend, Factored, device_bill
from repro.backends import base as base_module
from repro.backends import sweep
from repro.config import get_settings
from repro.dfpt.response import DFPTSolver
from repro.dft import hartree as hartree_module
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.hartree import MultipoleSolver
from repro.dft.scf import SCFDriver
from repro.grids import build_grid
from repro.obs.tracer import Tracer, activate
from repro.verify import Verifier
from repro.verify.mutations import shift_hartree_interval

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
def kernel_threads(module=base_module):
    """Record the name of every thread that leases a kernel's scratch
    through *module* (the Sumup / H kernels', or the Hartree solver's)."""
    names = []

    def leasing(shape):
        names.append(threading.current_thread().name)
        return lease(shape)

    lease = module.scratch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "scratch", leasing)
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


def _fake_sweep(n, kernel, block=lambda v: v, commit=None):
    """:func:`ordered_sweep` over views ``0 … n-1`` on two cores, called
    from a thread joined with a timeout; the committed ``(view, result)``
    pairs, or the sweep's error raised here."""
    got, raised = [], []

    def caller():
        try:
            sweep.ordered_sweep(
                range(n), 0, block, kernel, commit or (lambda v, r: got.append((v, r)))
            )
        except Exception as error:
            raised.append(error)

    with two_core():
        thread = threading.Thread(target=caller)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive(), "the sweep hung"
    if raised:
        raise raised[0]
    return got


class TestTheKernelQueue:
    """Fake kernels sleep, which frees the GIL as BLAS does."""

    def test_both_threads_run_kernels_in_one_sweep_of_resident_views(self):
        names = []

        def kernel(v, phi):
            names.append(threading.current_thread().name)
            time.sleep(0.01)
            return v * v

        got = _fake_sweep(4, kernel)
        assert got == [(v, v * v) for v in range(4)]
        assert 0 < _on_helper(names) < len(names)

    @pytest.mark.parametrize("lookahead", [1, 2, 4])
    def test_the_caller_holds_at_most_the_lookahead_of_views_in_flight(
        self, lookahead, monkeypatch
    ):
        """At each *block* call, the views fetched before it and not yet
        committed: with the one being fetched, never more than the
        lookahead — so never more unclaimed blocks (a stream sweep's
        memory) nor results waiting to commit — and the lookahead fills."""
        monkeypatch.setattr(sweep, "_LOOKAHEAD", lookahead)
        fetched, in_flight, got = [0], [], []

        def block(v):
            in_flight.append(fetched[0] - len(got))
            fetched[0] += 1
            return v

        def kernel(v, phi):
            time.sleep(0.001 * (1 + v % 3))
            return v * v

        _fake_sweep(24, kernel, block, lambda v, r: got.append((v, r)))
        assert got == [(v, v * v) for v in range(24)]
        assert max(in_flight) == lookahead - 1

    def test_kernels_that_finish_out_of_order_commit_in_view_order(self):
        finished = []

        def kernel(v, phi):
            time.sleep(0.002 * (12 - v))
            finished.append(v)
            return v * v

        assert _fake_sweep(12, kernel) == [(v, v * v) for v in range(12)]
        assert finished != sorted(finished)

    @pytest.mark.parametrize("where", ["block", "commit", "caller", "helper"])
    def test_an_error_reaches_the_caller_and_leaves_the_helper_idle(self, where):
        """*where* raises: the sweep's *block*, its *commit*, or a kernel
        on the caller or on the helper thread."""
        runs = []

        def block(v):
            if where == "block" and v == 5:
                raise LookupError(where)
            return v

        def kernel(v, phi):
            runs.append(v)
            time.sleep(0.003)
            thread = "helper" if _on_helper([threading.current_thread().name]) else "caller"
            if where == thread:
                raise LookupError(where)
            return np.sqrt(np.arange(v, v + 64.0))

        def commit(v, r):
            if where == "commit" and v == 2:
                raise LookupError(where)

        with pytest.raises(LookupError, match=where):
            _fake_sweep(8, kernel, block, commit)
        n_runs = len(runs)
        # Idle: the helper takes a new job at once, and no kernel of the
        # failed sweep runs after it returned.
        assert sweep._the_helper().submit(lambda: 7).result(timeout=10) == 7
        time.sleep(0.02)
        assert len(runs) == n_runs

        def clean(v, phi):
            time.sleep(0.003)
            return np.sqrt(np.arange(v, v + 64.0))

        with one_core():
            want = []
            sweep.ordered_sweep(range(8), 0, lambda v: v, clean, lambda v, r: want.append(r))
        got = _fake_sweep(8, clean)
        assert [v for v, _ in got] == list(range(8))
        assert all(np.array_equal(r, w) for (_, r), w in zip(got, want))


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


# ----------------------------------------------------------------------
# The Hartree back-interpolation: a sweep over atoms
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _grid(name):
    structure = {"chain26": lambda: polyethylene(4), "c2h6": lambda: polyethylene(1)}[name]()
    return build_grid(structure, get_settings("minimal").grids, with_partition=True)


def _density(grid, k):
    """A bumpy density, or k of them as ``(n_points, k)``."""
    rng = np.random.default_rng(53)
    rho = np.exp(-0.05 * ((grid.points - grid.points.mean(axis=0)) ** 2).sum(axis=1))
    rho = rho * (1.0 + 0.2 * rng.random(grid.n_points))
    if k == 1:
        return rho
    return np.stack([rho, rho * grid.points[:, 0], rho * grid.points[:, 2] ** 2], axis=1)


@functools.lru_cache(maxsize=None)
def _hartree_run(k, helper):
    """A fresh 26-chain solver's potentials: cold (every plan built in a
    kernel), warm, at explicit points (throwaway plans) and for a subset
    of atoms; its plans; and the threads that ran the kernels."""
    grid = _grid("chain26")
    solver = MultipoleSolver(grid, l_max=4)
    expansion = solver.solve(solver.expand(_density(grid, k)))
    with (two_core() if helper else one_core()), kernel_threads(hartree_module) as names:
        potentials = {
            "cold": solver.evaluate(expansion),
            "warm": solver.evaluate(expansion),
            "points": solver.evaluate(expansion, points=grid.points[::5] + 0.05),
            "atoms": solver.evaluate(expansion, atoms=[25, 3, 0]),
        }
    return potentials, solver._plans, tuple(names)


@pytest.mark.parametrize("k", [1, 3])
class TestTheHartreeSweepIsTheInlineLoop:
    def test_potentials_are_byte_equal(self, k):
        (want, _, inline), (got, _, helper) = _hartree_run(k, False), _hartree_run(k, True)
        for key in want:
            assert got[key].shape == want[key].shape, key
            assert got[key].tobytes() == want[key].tobytes(), key
        assert _on_helper(helper) > 0 and _on_helper(inline) == 0

    def test_plans_built_in_kernels_are_the_inline_plans(self, k):
        want, got = _hartree_run(k, False)[1], _hartree_run(k, True)[1]
        for a, (p, q) in enumerate(zip(want, got)):
            assert p.runs == q.runs, a
            for field in ("near", "far", "y_near", "tap_weights", "far_table"):
                assert np.array_equal(getattr(p, field), getattr(q, field)), (a, field)


class _RaisingOnTheHelper(tuple):
    """A plan's runs that cannot be read on the sweep's helper thread."""

    def __iter__(self):
        if _on_helper([threading.current_thread().name]):
            raise FloatingPointError("corrupted plan")
        return super().__iter__()


def test_a_failing_hartree_kernel_raises_on_the_caller_and_the_next_call_is_right():
    grid = _grid("chain26")
    solver = MultipoleSolver(grid, l_max=4)
    expansion = solver.solve(solver.expand(_density(grid, 1)))
    with one_core():
        want = solver.evaluate(expansion)
    plans = list(solver._plans)
    solver._plans = [dataclasses.replace(p, runs=_RaisingOnTheHelper(p.runs)) for p in plans]
    with two_core():
        with pytest.raises(FloatingPointError, match="corrupted plan"):
            solver.evaluate(expansion)
        solver._plans = plans
        assert solver.evaluate(expansion).tobytes() == want.tobytes()


def test_a_shifted_plan_is_what_the_two_core_sweep_reads_and_is_killed():
    """The mutation replaces a cached plan: the sweep hands it to the
    kernels instead of building a clean one, so every call agrees with
    the inline mutant and only the plan-bypassing check fails."""
    grid = _grid("chain26")
    solver = MultipoleSolver(grid, l_max=4)
    expansion = solver.solve(solver.expand(_density(grid, 1)))
    clean = solver.evaluate(expansion)
    shift_hartree_interval(solver, atom=5)
    with one_core():
        want = solver.evaluate(expansion)
    with two_core():
        got = solver.evaluate(expansion)
    assert got.tobytes() == want.tobytes() and not np.array_equal(got, clean)

    verifier = Verifier("full")
    with two_core():
        driver = SCFDriver(hydrogen_molecule(), get_settings("minimal"), verifier=verifier)
        shift_hartree_interval(driver.solver)
        driver.run()
    assert verifier.report.failed_names == ["hartree_plan_parity"]


class TestTheHartreeFloor:
    def _threads(self, name, k, monkeypatch):
        monkeypatch.setattr(sweep, "_WIDTH", 2)
        grid = _grid(name)
        solver = MultipoleSolver(grid, l_max=4)
        with kernel_threads(hartree_module) as names:
            solver.hartree_potential(_density(grid, k))
        return names

    def test_small_molecules_stay_inline_even_three_wide(self, monkeypatch):
        names = self._threads("c2h6", 3, monkeypatch)
        assert names and _on_helper(names) == 0

    def test_the_chain_solve_is_over_the_floor(self, monkeypatch):
        assert _on_helper(self._threads("chain26", 1, monkeypatch)) > 0
