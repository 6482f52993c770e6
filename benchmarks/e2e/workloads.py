"""The four wall-clock workloads and the metrics each one reports.

Every workload has the same shape: a **set-up** (timed, repeated where it is
cheap enough), a **fixed part** that produces the solution and is checked for
correctness, and **repeatable steps** sampled at least a minimum number of
times and until ``--seconds`` have passed since measuring began.
``time_to_solution_s`` is set-up plus fixed part, so it does not depend on how
long the sampling ran.

Layers are timed *from outside*: around calls into public functions, and — in
the traced pass — by shadowing methods on the instances the harness holds
(:meth:`spans.Recorder.wrap`).  Nothing under ``src/`` is edited.

The end-to-end metrics are the same six names for every workload, because the
benchmark contract wants every run to report every end-to-end metric; the
three ``op_*_ms`` slots mean a different operation on each workload (see
:data:`OP_ALIASES` and the README table).
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import signal
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from spans import Recorder, Span, median, percentile, span_cost_seconds

#: What the three operation slots measure on each workload, with the name the
#: issue gave that number.  ``p50`` slots are medians over per-call samples;
#: ``mean`` slots are a phase's wall divided by its job count.
OP_ALIASES: Dict[str, Dict[str, str]] = {
    "chain26_physics": {
        "op_a_ms": "cpscf_cycle_ms_p50",
        "op_b_ms": "scf_cycle_ms_p50",
        "op_c_ms": "hartree_solve_ms_p50",
    },
    "chain32_kernels": {
        "op_a_ms": "dense_sweep_ms_p50",
        "op_b_ms": "screened_sweep_ms_p50",
        "op_c_ms": "stream_sweep_ms_p50",
    },
    "service_mix": {
        "op_a_ms": "job_ms_mean (1000 / jobs_per_s)",
        "op_b_ms": "fleet_job_ms_mean (1000 / fleet_jobs_per_s)",
        "op_c_ms": "cache_hit_ms_p50",
    },
    "model_scale": {
        "op_a_ms": "model_config_ms_mean (1000 / model_configs_per_s)",
        "op_b_ms": "locality_mapping_ms_p50",
        "op_c_ms": "balanced_mapping_ms_p50",
    },
}

#: Package names the spans are attributed to (longest prefix wins).
LAYERS = (
    "basis", "grids", "dft.hamiltonian", "dft.scf", "dfpt.response", "backends",
    "dft.hartree", "service", "fleet", "verify", "obs", "core", "mapping",
    "harness",
)

#: Per-layer metric prefix -> the end-to-end metrics it should move (which
#: workload, and by how much, is the README's table).  ``proc``, ``calib`` and
#: ``trace`` move nothing; they explain a moved total no layer accounts for.
MOVES: Dict[str, Sequence[str]] = {
    "proc.": ("time_to_solution_s",),
    "calib.": ("time_to_solution_s",),
    "trace.": ("time_to_solution_s",),
    "basis.": ("setup_s",),
    "grids.": ("setup_s", "op_b_ms"),
    "dft.hamiltonian.": ("setup_s",),
    "backends.": ("op_a_ms", "op_b_ms", "op_c_ms"),
    "dft.hartree.": ("op_a_ms", "op_b_ms", "op_c_ms", "time_to_solution_s"),
    "dft.scf.": ("op_b_ms",),
    "dfpt.response.": ("op_a_ms",),
    "service.": ("setup_s", "op_a_ms", "op_c_ms"),
    "fleet.": ("op_b_ms",),
    "verify.": ("op_a_ms",),
    "obs.": ("op_a_ms",),
    "core.": ("setup_s", "op_a_ms"),
    "mapping.": ("op_b_ms", "op_c_ms"),
}

#: Tolerances of the reference checks (``reference.json``).
ENERGY_TOL_HA = 1e-6
ALPHA_RTOL = 1e-3
ITERATION_SLACK = 2
#: Same refusal guard as ``BENCH_sparse.json``: screened vs dense outputs.
SCREENING_TOL = 1e-4

#: An operation slot is either the name of the spans to take the median of,
#: or ``(name, n)``: the wall of the one span called *name*, per *n* jobs.
Slot = Union[str, Tuple[str, int]]


class SpeedProbe:
    """How fast the machine is at each moment of the run.

    The benchmark machine is a shared two-core VM.  In bursts of a fraction
    of a second to minutes everything on it — interpreter loops, BLAS calls,
    numpy kernels alike — runs 10-50 % slower, and raw times of identical runs
    spread by 10-25 %.  One probe sample is a short interpreter-bound loop
    plus a few small BLAS products (about 4 ms together).  An interval timer
    takes one every ``PERIOD_S`` while the workload runs: the handler runs
    between two bytecodes of whatever the program is doing, so a call that
    lasts seconds is sampled inside as well.

    Every end-to-end *time* goes through :meth:`reference_seconds`: the
    samples taken inside it are subtracted, and what is left is divided,
    piece by piece, by the median of the samples taken within ``MARGIN_S``
    of the piece, over ``REF_MS``.  The reported value is therefore the time
    at the machine speed where a sample takes ``REF_MS`` (README, "Noise").
    The raw readings are printed beside the reported ones.
    """

    REF_MS = 4.5
    PERIOD_S = 0.1
    MARGIN_S = 1.0

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).normal(size=(256, 256))
        self._sampling = False
        self.times: List[float] = []
        self.pyloop_ms: List[float] = []
        self.matmul_ms: List[float] = []
        self.samples_ms: List[float] = []
        self.sample()  # the first sample runs on cold caches: take it and drop it
        for kept in (self.times, self.pyloop_ms, self.matmul_ms, self.samples_ms):
            kept.clear()
        self.sample()

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a stalled sample outlasted the period
            return
        self._sampling = True
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i & 7
        middle = time.perf_counter()
        for _ in range(4):
            self._a @ self._a
        end = time.perf_counter()
        self.times.append(start)
        self.pyloop_ms.append(1e3 * (middle - start))
        self.matmul_ms.append(1e3 * (end - middle))
        self.samples_ms.append(1e3 * (end - start))
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> slice:
        """Which samples began in ``[start, end]``; ``times`` is sorted."""
        return slice(bisect_left(self.times, start), bisect_right(self.times, end))

    def factor(self, start: float, end: float) -> float:
        """Machine slowness over ``[start, end]``: 1.0 at the reference speed."""
        near = self.samples_ms[self._between(start - self.MARGIN_S, end + self.MARGIN_S)]
        return median(near or self.samples_ms) / self.REF_MS

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` without the samples inside, at the reference speed.

        The interval is cut at every sample inside it and each piece divided
        by its own :meth:`factor`, so a slow stretch that covers part of a
        long call corrects that part only.
        """
        inside = self._between(start, end)
        cuts = [start, *self.times[inside], end]
        # Every piece but the first begins with the sample that cut it.
        costs = [0.0, *(1e-3 * ms for ms in self.samples_ms[inside])]
        return sum(
            (b - a - cost) / self.factor(a, b)
            for a, b, cost in zip(cuts, cuts[1:], costs)
        )

    @property
    def matmul_gflops(self) -> float:
        return 4 * 2 * 256**3 / median(self.matmul_ms) / 1e6

    def thirds(self) -> Tuple[float, float]:
        """Median sample of the first and of the last third of the run."""
        samples = self.samples_ms
        third = max(1, len(samples) // 3)
        return median(samples[:third]), median(samples[-third:])


@dataclass
class Run:
    """One workload run: inputs, the span recorder and what it found."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    smoke: bool = False
    #: This workload's block of ``reference.json``; ``None`` skips the
    #: reference checks (``--write-reference`` and the 2-atom smoke).
    reference: Optional[Dict[str, Any]] = None
    scratch: Optional[Path] = None
    rec: Recorder = field(init=False)
    probe: SpeedProbe = field(init=False)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: The end-to-end times as the clock read them, before the speed factor.
    raw: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    observed: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rec = Recorder(self.workload)
        self.probe = SpeedProbe()

    def operation(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a failed one is kept by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def solved(self) -> None:
        """The fixed part is over: what follows is sampling, as long as the
        machine's speed allows, and must not count toward ``peak_rss_mb``."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.end_to_end["peak_rss_mb"] = peak_kb / 1024.0

    def step(self, name: str, fn: Callable, *args, **kwargs):
        """One attempted operation: ``fn`` under a span."""
        self.attempted += 1
        with self.rec.span(name):
            return fn(*args, **kwargs)

    def sample(self, step: Callable[[], Any], min_n: int, since: float) -> int:
        """Repeat *step* at least *min_n* times and until ``--seconds`` have
        passed since *since*; returns how often it ran."""
        n = 0
        while n < min_n or time.perf_counter() < since + self.seconds:
            step()
            n += 1
        return n

    def finish(self, fixed: Sequence[str], used_setup: int = -1, **slots: Slot) -> None:
        """Fill the end-to-end times and, when traced, the trace accounting.

        ``setup_s`` is the median of the top-level ``setup`` spans; *fixed*
        names the top-level spans that then produce the solution, and
        ``time_to_solution_s`` is ``setup_s`` plus their wall.  *used_setup*
        says which set-up the fixed part ran on, for the trace accounting.
        """
        rec = self.rec
        tops = [s for s in rec.spans if s.parent is None]
        setups = [s for s in tops if s.name == "setup"]
        solution = [s for s in tops if s.name in fixed]

        def both(spans: Sequence[Span], combine: Callable) -> Tuple[float, float]:
            """``combine`` over the seconds as the clock read them and over
            the seconds at the reference speed."""
            return (
                combine([s.duration for s in spans]),
                combine([self.probe.reference_seconds(s.start, s.end) for s in spans]),
            )

        readings = {"setup_s": both(setups, median)}
        readings["time_to_solution_s"] = tuple(
            a + b for a, b in zip(readings["setup_s"], both(solution, sum))
        )
        for name, slot in slots.items():
            if isinstance(slot, str):
                raw, corrected = both(rec.named(slot), median)
            else:
                raw, corrected = (x / slot[1] for x in both(rec.named(slot[0]), sum))
            readings[name] = (1e3 * raw, 1e3 * corrected)
        self.raw = {k: v[0] for k, v in readings.items()}
        self.end_to_end.update({k: v[1] for k, v in readings.items()})
        if not self.traced:
            return
        # Coverage and shares look only at time that counts toward the
        # solution: one set-up and the fixed part, not sampling or drills.
        counted = [setups[used_setup]] + solution
        wall = sum(s.duration for s in counted)
        counted_ids = {id(s) for s in counted}
        uncovered = sum(
            t for s, t in zip(rec.spans, rec.self_times()) if id(s) in counted_ids
        )
        self.per_layer["trace.coverage_frac"] = 1.0 - uncovered / wall
        self.per_layer["trace.overhead_frac"] = (
            sum(rec.under(counted)) * span_cost_seconds() / wall
        )
        layer_seconds = rec.layer_self_seconds(LAYERS, counted)
        self.shares = {k: v / wall for k, v in layer_seconds.items() if v > 0.0}


def drain(run: Run, generator, span_name: str):
    """Advance a cycle generator to its end, one span per ``next()``, the way
    ``SCFDriver.run`` and ``DFPTSolver.solve_direction`` drain themselves;
    returns the generator's return value."""
    while True:
        try:
            run.step(span_name, next, generator)
        except StopIteration as stop:
            return stop.value


def physics_matches(got: Dict[str, Any], want: Dict[str, Any]) -> bool:
    """Energy, polarizability and iteration counts against a reference block."""
    alpha_got = np.asarray(got["polarizability"], dtype=float)
    alpha_want = np.asarray(want["polarizability"], dtype=float)
    scale = float(np.abs(alpha_want).max())
    iterations = [got["scf_iterations"]] + list(got["cpscf_iterations"])
    wanted = [want["scf_iterations"]] + list(want["cpscf_iterations"])
    return (
        bool(np.isfinite(got["total_energy"]))
        and abs(got["total_energy"] - want["total_energy"]) <= ENERGY_TOL_HA
        and alpha_got.shape == alpha_want.shape
        and bool(np.all(np.abs(alpha_got - alpha_want) <= ALPHA_RTOL * scale))
        and all(abs(g - w) <= ITERATION_SLACK for g, w in zip(iterations, wanted))
    )


# ----------------------------------------------------------------------
# chain26_physics
# ----------------------------------------------------------------------
def chain26_physics(run: Run) -> None:
    """Polyethylene H(C2H4)4H: SCF to convergence, then CPSCF along the chain.

    Driven step by step the way ``PerturbationSimulator.run_physics`` drives
    it.  Trimmed from the issue's three field directions to the x direction
    so a run fits the contract's time cap; the Hartree solve is sampled
    directly on the converged density afterwards.
    """
    from repro.atoms import hydrogen_molecule, polyethylene
    from repro.basis.basis_set import build_basis
    from repro.config import get_settings
    from repro.dfpt.response import DFPTSolver
    from repro.dft.hamiltonian import MatrixBuilder
    from repro.dft.scf import SCFDriver
    from repro.grids.atom_grid import build_grid
    from repro.utils.timing import PhaseTimer

    rec = run.rec
    structure = hydrogen_molecule() if run.smoke else polyethylene(4)
    settings = get_settings("minimal")
    direction = 2 if run.smoke else 0  # along the molecule's axis
    timer = PhaseTimer()

    with rec.span("setup"):
        basis = run.step("basis.build", build_basis, structure)
        grid = run.step(
            "grids.build", build_grid, structure, settings.grids, with_partition=True
        )
        driver = run.step(
            "dft.hamiltonian.construct",
            SCFDriver, structure, settings, timer=timer, basis=basis, grid=grid,
        )
    if run.traced:
        rec.wrap(driver.backend, "density_on_grid", "backends.sumup")
        rec.wrap(driver.backend, "potential_matrix", "backends.h")
        rec.wrap(driver.backend, "first_order_dm", "backends.dm")
        rec.wrap(driver.solver, "hartree_potential", "dft.hartree.solve")

    measuring_from = time.perf_counter()
    with rec.span("solve") as solve:
        gs = drain(run, driver.iter_cycles(), "dft.scf.cycle")
        with rec.span("dfpt.response.construct"):
            solver = DFPTSolver(gs, settings.cpscf, timer=timer)
        response = drain(run, solver.iter_direction(direction), "dfpt.response.cycle")
        with rec.span("dfpt.response.polarizability"):
            alpha_column = response.polarizability_column(gs.dipoles)

    got = {
        "total_energy": float(gs.total_energy),
        "polarizability": [float(x) for x in alpha_column],
        "scf_iterations": int(gs.iterations),
        "cpscf_iterations": [int(response.iterations)],
    }
    run.observed = got
    run.operation(
        bool(np.isfinite(gs.total_energy)) and bool(np.all(np.isfinite(alpha_column))),
        "solve produced a non-finite energy or polarizability",
    )
    if run.reference is not None:
        run.operation(physics_matches(got, run.reference), f"solve left reference: {got}")

    run.solved()
    with rec.span("sampling"):
        n_hartree = run.sample(
            lambda: run.step(
                "harness.hartree_sample", driver.solver.hartree_potential, gs.density
            ),
            3 if run.smoke else 11,
            measuring_from,
        )
    run.notes.append(
        f"n: scf cycles {len(rec.named('dft.scf.cycle'))}, cpscf cycles "
        f"{len(rec.named('dfpt.response.cycle'))}, hartree samples {n_hartree}"
    )

    if run.traced:
        _physics_layers(run, driver, timer, solve)
        with rec.span("drill"):
            _hamiltonian_drill(run, MatrixBuilder(basis, grid, batches=driver.builder.batches))
    run.finish(
        ("solve",),
        op_a_ms="dfpt.response.cycle",
        op_b_ms="dft.scf.cycle",
        op_c_ms="harness.hartree_sample",
    )


def _physics_layers(run: Run, driver, timer, solve: Span) -> None:
    """Per-layer numbers of the traced physics solve, plus the reconciliation."""
    rec, out = run.rec, run.per_layer
    in_solve = [s for s in rec.spans if solve.start <= s.start <= solve.end]

    def seconds(name: str) -> List[float]:
        return [s.duration for s in in_solve if s.name == name]

    for key in ("sumup", "h", "dm"):
        samples = seconds(f"backends.{key}")
        out[f"backends.{key}_s"] = sum(samples)
        out[f"backends.{key}_calls"] = len(samples)
        if key != "dm":
            out[f"backends.{key}_ms_p50"] = 1e3 * median(samples)
    profile = driver.backend.profile
    out["backends.elements"] = sum(p.elements for p in profile.phases.values())
    out["backends.blocks_evaluated"] = profile.screen_blocks_evaluated
    hartree = seconds("dft.hartree.solve")
    out["dft.hartree.solve_s"] = sum(hartree)
    out["dft.hartree.calls"] = len(hartree)
    out["dft.hartree.ms_p50"] = 1e3 * median(hartree)
    if not run.smoke:
        out["dft.hartree.ms_p75"] = 1e3 * percentile(hartree, 75)
    out["dft.scf.self_s"] = rec.self_total("dft.scf.cycle")
    out["dft.scf.iterations"] = len(seconds("dft.scf.cycle"))
    out["dfpt.response.self_s"] = rec.self_total("dfpt.response.cycle")
    out["dfpt.response.cycles"] = len(seconds("dfpt.response.cycle"))
    out["basis.build_s"] = rec.total("basis.build")
    out["grids.build_s"] = rec.total("grids.build")
    out["grids.n_points"] = driver.grid.n_points
    out["grids.n_batches"] = len(driver.builder.batches)
    out["dft.hamiltonian.construct_s"] = rec.total("dft.hamiltonian.construct")

    # Reconciliation: the harness's outside view against the PhaseTimer the
    # harness passed in.  The drivers call density_on_grid once more after
    # convergence, outside any timer phase, so only as many spans as the
    # timer has visits are compared, in call order.
    def under(span_name: str, cycle_name: str, visits: int) -> float:
        picked = [
            s.duration
            for s in in_solve
            if s.name == span_name
            and s.parent is not None
            and rec.spans[s.parent].name == cycle_name
        ]
        return sum(picked[:visits])

    scf, cpscf = "dft.scf.cycle", "dfpt.response.cycle"
    pairs = {
        "backends": (
            under("backends.sumup", scf, timer.visits("density"))
            + under("backends.h", scf, timer.visits("hamiltonian"))
            + under("backends.sumup", cpscf, timer.visits("Sumup"))
            + under("backends.h", cpscf, timer.visits("H")),
            sum(timer.total(p) for p in ("density", "hamiltonian", "Sumup", "H")),
        ),
        "dft.hartree": (
            under("dft.hartree.solve", scf, timer.visits("hartree"))
            + under("dft.hartree.solve", cpscf, timer.visits("Rho")),
            timer.total("hartree") + timer.total("Rho"),
        ),
    }
    for layer, (spans_s, timer_s) in pairs.items():
        gap = abs(spans_s - timer_s) / timer_s
        run.notes.append(
            f"reconcile {layer}: spans {spans_s:.4f} s, PhaseTimer {timer_s:.4f} s, "
            f"gap {100 * gap:.2f} %" + (" (above 2 %)" if gap > 0.02 else "")
        )
        run.operation(gap <= 0.05, f"{layer} spans and PhaseTimer differ by {gap:.3f}")


def _hamiltonian_drill(run: Run, builder) -> None:
    """Traced-only: what the ``SCFDriver`` constructor spends its time on,
    re-done on a second builder so the pieces can be timed from outside."""
    for key, piece in (
        ("basis.table_build", builder.basis_values),
        ("dft.hamiltonian.overlap", builder.overlap),
        ("dft.hamiltonian.kinetic", builder.kinetic),
        ("dft.hamiltonian.vext", builder.nuclear_attraction),
        ("dft.hamiltonian.dipoles", builder.dipole_matrices),
    ):
        with run.rec.span(key) as span:
            piece()
        run.per_layer[f"{key}_s"] = span.duration


# ----------------------------------------------------------------------
# chain32_kernels
# ----------------------------------------------------------------------
def chain32_kernels(run: Run) -> None:
    """Polyethylene H(C2H4)5H: Sumup + H sweeps under three ``MatrixBuilder``s.

    Trimmed from the issue's 98-atom chain (one run of that takes minutes).
    At 32 atoms the chi table fits the ``batched`` engine's default 64 MB, so
    the stream builder gets a budget of a quarter of the table: the regime
    the issue asks for — every sweep re-evaluates every block — is kept.
    """
    from repro.atoms import hydrogen_molecule, polyethylene
    from repro.backends.batched import BatchedBackend
    from repro.basis.basis_set import build_basis
    from repro.config import get_settings
    from repro.dft.hamiltonian import MatrixBuilder
    from repro.grids.atom_grid import build_grid
    from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

    rec = run.rec
    structure = hydrogen_molecule() if run.smoke else polyethylene(5)
    settings = get_settings("minimal")
    rng = np.random.default_rng(run.seed)
    outputs: Dict[str, Dict[str, np.ndarray]] = {}

    def sweep(mode: str) -> None:
        backend = builders[mode].backend
        outputs[mode] = {
            "density": backend.density_on_grid(p),
            "potential": backend.potential_matrix(v),
        }

    with rec.span("setup"):
        basis = run.step("basis.build", build_basis, structure)
        grid = run.step(
            "grids.build", build_grid, structure, settings.grids, with_partition=True
        )
        with rec.span("harness.inputs"):
            p = rng.normal(size=(basis.n_basis, basis.n_basis))
            p = p + p.T
            v = rng.normal(size=grid.n_points)
        dense = run.step("grids.batching", MatrixBuilder, basis, grid, backend="numpy")
        screened = run.step(
            "grids.pattern",
            MatrixBuilder, basis, grid, batches=dense.batches, backend="numpy",
            screening_threshold=DEFAULT_SCREENING_THRESHOLD,
        )
        table_bytes = 8 * grid.n_points * basis.n_basis
        stream = run.step(
            "backends.stream.construct",
            MatrixBuilder, basis, grid, batches=dense.batches,
            backend=BatchedBackend(max_cache_bytes=table_bytes // 4),
        )
        builders = {"dense": dense, "screened": screened, "stream": stream}
        # The warm sweeps build the two cached chi tables; nothing persists
        # across stream sweeps, so that mode has no warm-up.
        run.step("basis.table.dense", sweep, "dense")
        run.step("basis.table.screened", sweep, "screened")
    if run.traced:
        for mode, builder in builders.items():
            rec.wrap(builder.backend, "density_on_grid", f"backends.{mode}.sumup")
            rec.wrap(builder.backend, "potential_matrix", f"backends.{mode}.h")

    def cached_pair() -> None:
        # Dense and screened sweeps alternate, so a slow stretch of the
        # machine lands on both.
        for mode in ("dense", "screened"):
            run.step(f"harness.sweep.{mode}", sweep, mode)

    # Each stream sweep (seconds long: too long to sample further) is followed
    # by a few cached pairs, so all three medians draw on the whole run and a
    # slow stretch of the machine cannot sit on one mode alone.
    n_stream, pairs_per_stream = (1, 2) if run.smoke else (3, 4)
    measuring_from = time.perf_counter()
    with rec.span("sweeps"):
        for _ in range(n_stream):
            run.step("harness.sweep.stream", sweep, "stream")
            for _ in range(pairs_per_stream):
                cached_pair()
    run.solved()
    with rec.span("sampling"):
        n_extra = run.sample(cached_pair, 0, measuring_from)
    n_cached = n_stream * pairs_per_stream + n_extra

    ref = outputs["dense"]
    screened_diff = max(
        float(np.abs(ref[k] - outputs["screened"][k]).max()) for k in ref
    )
    run.operation(
        screened_diff <= SCREENING_TOL,
        f"screened outputs left dense by {screened_diff:.3e}",
    )
    # allclose, not bitwise: whether engines must agree to the bit is an
    # open decision (ROADMAP item 2) this benchmark must not freeze.
    run.operation(
        all(np.allclose(ref[k], outputs["stream"][k], rtol=1e-10, atol=0.0) for k in ref),
        "stream outputs are not allclose(rtol=1e-10) to dense",
    )
    run.notes.append(
        f"n: stream sweeps {n_stream}, dense and screened sweeps "
        f"{n_cached} each; screened-dense max diff {screened_diff:.2e}"
    )

    if run.traced:
        _kernel_layers(run, builders, table_bytes)
    run.finish(
        ("sweeps",),
        op_a_ms="harness.sweep.dense",
        op_b_ms="harness.sweep.screened",
        op_c_ms="harness.sweep.stream",
    )


def _kernel_layers(run: Run, builders, table_bytes: int) -> None:
    rec, out = run.rec, run.per_layer
    dense, screened, stream = (builders[m] for m in ("dense", "screened", "stream"))
    grid, basis = dense.grid, dense.basis
    dense_sweep_s = median(rec.durations("harness.sweep.dense"))
    out["basis.build_s"] = rec.total("basis.build")
    out["basis.table_build_s"] = rec.total("basis.table.dense") - dense_sweep_s
    out["grids.build_s"] = rec.total("grids.build")
    out["grids.n_points"] = grid.n_points
    out["grids.n_batches"] = len(dense.batches)
    out["grids.pattern_s"] = rec.total("grids.pattern")
    stats = screened.pattern.stats
    out["grids.fill_fraction"] = stats.fill_fraction
    out["grids.block_reduction"] = stats.block_reduction
    for mode in builders:
        for key in ("sumup", "h"):
            out[f"backends.{mode}.{key}_ms_p50"] = 1e3 * median(
                rec.durations(f"backends.{mode}.{key}")
            )
    profile = stream.backend.profile
    lookups = profile.cache_hits + profile.cache_misses
    out["backends.stream.cache_hit_frac"] = profile.cache_hits / lookups if lookups else 0.0
    out["backends.blocks_evaluated"] = screened.backend.profile.screen_blocks_evaluated
    out["backends.elements"] = sum(
        p.elements for b in builders.values() for p in b.backend.profile.phases.values()
    )
    # Computed from array shapes, not measured: per sweep, Sumup is
    # phi @ P then a row-wise dot, H is phi * wv then phi.T @ (...).
    n_points, n_basis, n_batches = grid.n_points, basis.n_basis, len(dense.batches)
    flops = 4 * n_points * n_basis**2 + 3 * n_points * n_basis
    out["backends.dense.flops_computed"] = flops
    out["backends.dense.bytes_computed"] = 2 * table_bytes + 16 * n_batches * n_basis**2
    out["backends.dense.gflops_over_calib"] = (
        flops / dense_sweep_s / 1e9 / run.probe.matmul_gflops
    )


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
#: Jobs per fleet wave of phase B.  A wave computes each distinct physics in
#: it once, so which jobs share a wave decides how much work there is.
FLEET_WAVE = 16


def _job_mix(run: Run):
    """``(label, structure, settings)`` per request of phases A and B, one
    fleet wave after the other: 12 H2 and the four larger jobs, then 4 H2."""
    from repro.atoms import hydrogen_molecule, methane, polyethylene, water
    from repro.config import get_settings

    minimal = get_settings("minimal")
    cheap = dataclasses.replace(minimal, verify="cheap")
    h2 = [(f"h2@{b}", hydrogen_molecule(b), minimal) for b in (1.3, 1.4, 1.5, 1.6)]
    if run.smoke:
        return h2[:2]
    larger = [("water", water(), minimal), ("water", water(), cheap)]
    larger += [("methane", methane(), minimal), ("polyethylene1", polyethylene(1), minimal)]
    return 3 * h2 + larger + h2


PHYSICS_FIELDS = ("total_energy", "polarizability", "scf_iterations", "cpscf_iterations")


def service_mix(run: Run) -> None:
    """Closed loop, one client: jobs through the store, a fleet wave, and the
    store on its own (journal appends, cache hits, replay).

    Trimmed from the issue's 48 requests to 20 (16 H2 over 4 bond lengths,
    2 water of which one ``verify="cheap"``, methane, ``polyethylene(1)``).
    """
    from repro.service.jobs import JobRequest, submit_job
    from repro.service.statestore import StateStore
    from repro.service.worker import WorkerPool, run_physics_task

    rec = run.rec
    rng = np.random.default_rng(run.seed)
    mix = _job_mix(run)
    # ``--seed`` permutes the order within a wave, not across waves: the work
    # left after the fleet's dedup must not depend on the seed.
    order = np.concatenate(
        [
            start + rng.permutation(min(FLEET_WAVE, len(mix) - start))
            for start in range(0, len(mix), FLEET_WAVE)
        ]
    )
    seeds = rng.choice(10**6, size=2 * len(mix), replace=False)
    labels: Dict[int, str] = {}

    def requests(phase: int) -> List[JobRequest]:
        out = []
        for slot, i in enumerate(order):
            label, structure, settings = mix[i]
            seed = int(seeds[phase * len(mix) + slot])
            labels[seed] = label + ("+cheap" if settings.verify == "cheap" else "")
            out.append(JobRequest(molecule=structure, settings=settings, seed=seed))
        return out

    def set_up():
        """Two journals and 2 x 20 submissions, under a ``setup`` span."""
        stores = []
        tag = len(rec.named("setup"))
        with rec.span("setup"):
            for phase, name in enumerate(("a", "b")):
                with rec.span("service.store_open"):
                    store = StateStore(run.scratch / f"setup{tag}-{name}.jsonl")
                for request in requests(phase):
                    outcome = run.step("service.submit", submit_job, store, request)
                    run.operation(outcome.fresh, "a phase A/B submission was not fresh")
                stores.append(store)
        return stores

    # Set-up is cheap here, so it is done again after every phase and
    # ``setup_s`` is the median over the whole run; this first pair of stores
    # is the one drained.
    store_a, store_b = set_up()

    def physics_of(store) -> Dict[str, Dict[str, Any]]:
        """label -> physics fields of every completed job, checking each."""
        found: Dict[str, Dict[str, Any]] = {}
        for task in store.tasks():
            result = store.result_for_key(task.key)
            done = task.status == "complete" and result is not None
            if not run.operation(done, f"job {task.task_id} ended {task.status}"):
                continue
            label = labels[task.payload["seed"]]
            fields = {k: result[k] for k in PHYSICS_FIELDS}
            same = found.setdefault(label, fields) == fields
            run.operation(same, f"{label}: two jobs of one phase disagree")
            want = (run.reference or {}).get(label.split("+")[0])
            if want is not None:
                run.operation(physics_matches(fields, want), f"{label} left reference")
        return found

    # Phase C: the store by itself.  No-op runner, so journal appends,
    # provenance collection and claim/complete are all that is timed.  It runs
    # first, so that further resubmit rounds can follow each later phase: the
    # cache-hit median then draws on the whole run, not on one second of it.
    n_tasks = 8 if run.smoke else 300
    noop_requests = [
        JobRequest(molecule="h2", settings=mix[0][2], seed=10**6 + i)
        for i in range(n_tasks)
    ]
    journal = run.scratch / "phase-c.jsonl"

    def resubmit_all() -> None:
        for request in noop_requests:
            outcome = run.step("service.cache_hit", submit_job, store_c, request)
            run.operation(outcome.cache_hit, "a resubmit was not a cache hit")

    measuring_from = time.perf_counter()
    with rec.span("phase_c"):
        store_c = StateStore(journal)
        with rec.span("service.submit_all") as submit_all:
            for request in noop_requests:
                outcome = run.step("service.noop_submit", submit_job, store_c, request)
                run.operation(outcome.fresh, "a phase C submission was not fresh")
        with rec.span("service.noop_drain") as noop_drain:
            report_c = WorkerPool(
                store_c, n_workers=2, runner=lambda task: {"ok": True}
            ).run_until_idle()
        run.operation(report_c.completed == n_tasks, "phase C drain lost tasks")
        with rec.span("service.resubmit_all") as resubmit:
            resubmit_all()
        with rec.span("service.replay") as replay:
            replayed = StateStore(journal)
        run.operation(
            replayed.counts() == store_c.counts(), "journal replay changed the counts"
        )
    set_up()
    n_jobs = len(mix)
    with rec.span("phase_a"):
        with rec.span("service.drain") as drain_a:
            report_a = WorkerPool(
                store_a, n_workers=1,
                runner=lambda task: run.step("core.run_physics", run_physics_task, task),
            ).run_until_idle()
        with rec.span("harness.checks"):
            physics_a = physics_of(store_a)
    set_up()
    with rec.span("sampling"):
        resubmit_all()
    with rec.span("phase_b"):
        with rec.span("fleet.drain") as drain_b:
            report_b = WorkerPool(store_b, n_workers=1, fleet=FLEET_WAVE).run_until_idle()
        with rec.span("harness.checks"):
            physics_b = physics_of(store_b)
            for label, fields in physics_a.items():
                run.operation(
                    physics_b.get(label) == fields,
                    f"{label}: fleet result differs from the sequential one",
                )
    run.solved()
    set_up()
    with rec.span("sampling"):
        run.sample(resubmit_all, 1, measuring_from)
    set_up()
    run.observed = {k: v for k, v in physics_a.items() if "+" not in k}

    submits = rec.durations("service.noop_submit")
    hits = rec.durations("service.cache_hit")
    store_s = submit_all.duration + noop_drain.duration + resubmit.duration
    rates = {
        "service.jobs_per_s": n_jobs / drain_a.duration,
        "fleet.jobs_per_s": n_jobs / drain_b.duration,
        "service.store_tasks_per_s": n_tasks / store_s,
    }
    run.notes.append(
        f"n: jobs {n_jobs} per phase ({len(physics_a)} distinct), store tasks "
        f"{n_tasks}, cache-hit samples {len(hits)}; "
        + ", ".join(f"{k} {v:.3f}" for k, v in rates.items())
    )
    if run.traced:
        out = run.per_layer
        out.update(rates)
        out["service.submit_ms_p50"] = 1e3 * median(submits)
        out["service.overhead_ms_per_job"] = 1e3 / n_jobs * (
            drain_a.duration - rec.total("core.run_physics")
        )
        out["service.noop_drain_ms_per_task"] = 1e3 * noop_drain.duration / n_tasks
        out["service.replay_ms"] = 1e3 * replay.duration
        out["service.journal_bytes"] = journal.stat().st_size
        out["service.failed_attempts"] = report_a.failed + report_b.failed + report_c.failed
        if not run.smoke:
            out["service.submit_ms_p95"] = 1e3 * percentile(submits, 95)
            out["service.cache_hit_ms_p95"] = 1e3 * percentile(hits, 95)
        out["fleet.drain_s"] = drain_b.duration
        out["fleet.steps"] = report_b.steps
        out["fleet.distinct_physics"] = len({k.split("+")[0] for k in physics_b})
        # The jobs build their own drivers, out of the harness's reach; their
        # result payloads carry the program's own phase seconds.
        phases: Dict[str, float] = {}
        for task in store_a.tasks():
            timings = (store_a.result_for_key(task.key) or {}).get("timings", {})
            for name, value in timings.get("phase_seconds", {}).items():
                phases[name] = phases.get(name, 0.0) + value
        out["dft.hartree.solve_s"] = phases.get("hartree", 0.0) + phases.get("Rho", 0.0)
        out["backends.sumup_s"] = phases.get("density", 0.0) + phases.get("Sumup", 0.0)
        out["backends.h_s"] = phases.get("hamiltonian", 0.0) + phases.get("H", 0.0)
        out["backends.dm_s"] = phases.get("DM", 0.0)
        with rec.span("drill"):
            _overhead_drill(run)
    run.finish(
        ("phase_a", "phase_b", "phase_c"),
        used_setup=0,
        op_a_ms=("service.drain", n_jobs),
        op_b_ms=("fleet.drain", n_jobs),
        op_c_ms="service.cache_hit",
    )


def _overhead_drill(run: Run) -> None:
    """Traced-only: what looking costs.  Water through ``run_physics`` with
    verify off / cheap / full and with the program's own tracer on,
    interleaved, min over rounds against the ``off`` variant.

    Trimmed from the issue's nine rounds to three; an overhead smaller than
    the ``off`` runs' own spread is noted as unresolved.
    """
    from repro.atoms import hydrogen_molecule, water
    from repro.config import get_settings
    from repro.core import PerturbationSimulator
    from repro.obs.tracer import Tracer, activate

    structure = hydrogen_molecule() if run.smoke else water()
    minimal = get_settings("minimal")

    def physics(verify: str = "off", traced: bool = False) -> None:
        settings = dataclasses.replace(minimal, verify=verify)
        simulator = PerturbationSimulator(structure, settings)
        if traced:
            with activate(Tracer()):
                simulator.run_physics()
        else:
            simulator.run_physics()

    variants = {
        "harness.drill_off": lambda: physics(),
        "verify.cheap": lambda: physics(verify="cheap"),
        "verify.full": lambda: physics(verify="full"),
        "obs.tracer": lambda: physics(traced=True),
    }
    for _ in range(1 if run.smoke else 3):
        for name, variant in variants.items():
            with run.rec.span(name):
                variant()
    off = run.rec.durations("harness.drill_off")
    spread = (max(off) - min(off)) / min(off)
    for name in ("verify.cheap", "verify.full", "obs.tracer"):
        overhead = min(run.rec.durations(name)) / min(off) - 1.0
        run.per_layer[f"{name}_overhead_frac"] = overhead
        if overhead < spread:
            run.notes.append(
                f"{name}_overhead_frac {overhead:.3f} is unresolved "
                f"(the off runs spread by {spread:.3f})"
            )


# ----------------------------------------------------------------------
# model_scale
# ----------------------------------------------------------------------
def model_scale(run: Run) -> None:
    """Polyethylene at ``light``: workload, batches, then a 12-configuration
    ``run_model`` ladder and explicit mapping calls.

    Trimmed from the issue's 30 002 atoms to 10 004 (same ladder).
    """
    from repro.atoms import polyethylene
    from repro.atoms.builders import polyethylene_units_for_atoms
    from repro.config import get_settings
    from repro.core import PerturbationSimulator
    from repro.core.flags import OptimizationFlags
    from repro.mapping.strategies import (
        load_balancing_mapping,
        locality_enhancing_mapping,
    )
    from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD

    rec = run.rec
    n_atoms = 602 if run.smoke else 10_004
    ranks = (16, 32, 64) if run.smoke else (1024, 2048, 4096)
    settings = get_settings("light")

    simulator = None
    for _ in range(1 if run.smoke else 3):
        simulator = None  # free the previous batch list before the next build
        with rec.span("setup"):
            structure = run.step(
                "core.structure", polyethylene, polyethylene_units_for_atoms(n_atoms)
            )
            simulator = PerturbationSimulator(structure, settings)
            run.step("core.workload", lambda: simulator.workload)
            run.step("core.batches", lambda: simulator.batches)

    configs = [
        (machine, n, flags)
        for machine in (HPC1_SUNWAY, HPC2_AMD)
        for n in ranks
        for flags in (OptimizationFlags.all(), OptimizationFlags.none())
    ]
    if run.traced:
        rec.wrap(simulator, "assignment", "mapping.assignment")
    rng = np.random.default_rng(run.seed)
    measuring_from = time.perf_counter()
    cycle_seconds: Dict[tuple, float] = {}
    with rec.span("ladder") as ladder:
        for i in rng.permutation(len(configs)):
            machine, n, flags = configs[i]
            report = run.step("core.run_model", simulator.run_model, machine, n, flags)
            phases = report.per_cycle_seconds
            run.operation(
                set(phases) == {"DM", "Sumup", "Rho", "H", "Comm"}
                and all(np.isfinite(x) and x > 0.0 for x in phases.values()),
                f"{machine.name} x {n}: bad phase breakdown {phases}",
            )
            cycle_seconds[(machine.name, n, flags.locality_mapping)] = report.cycle_seconds
    for (name, n, optimised), seconds in cycle_seconds.items():
        if optimised:
            run.operation(
                seconds < cycle_seconds[(name, n, False)],
                f"{name} x {n}: all() is not faster than none()",
            )

    def mapping_pair() -> None:
        # The mapping functions behind ``simulator.assignment``, called
        # directly: the simulator caches every result, so a second call for
        # one rank count would time a dictionary lookup.
        run.step("mapping.locality", locality_enhancing_mapping, simulator.batches, ranks[1])
        run.step("mapping.balanced", load_balancing_mapping, simulator.batches, ranks[1])

    run.solved()
    with rec.span("sampling"):
        n_pairs = run.sample(mapping_pair, 2 if run.smoke else 11, measuring_from)
    run.notes.append(
        f"n: configs {len(configs)}, mapping calls {n_pairs} of each kind; "
        f"model_configs_per_s {len(configs) / ladder.duration:.3f}"
    )

    if run.traced:
        out = run.per_layer
        calls = rec.durations("core.run_model")
        out["core.workload_s"] = median(rec.durations("core.workload"))
        out["core.batches_s"] = median(rec.durations("core.batches"))
        out["core.n_batches"] = len(simulator.batches)
        out["core.run_model_ms_p50"] = 1e3 * median(calls)
        out["core.run_model_ms_max"] = 1e3 * max(calls)
        out["core.model_configs_per_s"] = len(configs) / ladder.duration
        out["mapping.locality_s_p50"] = median(rec.durations("mapping.locality"))
        out["mapping.balanced_s_p50"] = median(rec.durations("mapping.balanced"))
    run.finish(
        ("ladder",),
        op_a_ms=("ladder", len(configs)),
        op_b_ms="mapping.locality",
        op_c_ms="mapping.balanced",
    )


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "chain26_physics": chain26_physics,
    "chain32_kernels": chain32_kernels,
    "service_mix": service_mix,
    "model_scale": model_scale,
}


def run_workload(run: Run) -> Run:
    """Run one workload, with a scratch directory it may write journals to."""
    if run.scratch is not None:
        run.scratch.mkdir(parents=True, exist_ok=True)
    run.probe.start()
    try:
        WORKLOADS[run.workload](run)
    finally:
        run.probe.stop()
        if run.scratch is not None:
            shutil.rmtree(run.scratch, ignore_errors=True)
    return run
