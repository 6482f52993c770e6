"""One workload in one fresh process; prints its result as one JSON line.

``run.py`` launches this file with the BLAS thread counts and
``PYTHONHASHSEED`` already pinned in the environment, so they hold before
numpy is imported.  Everything the workload needs is imported here, before
any clock starts, so import time is its own number (``proc.import_s``) and
never part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: ``proc.wall_over_cpu`` above this marks the run as contended.
CONTENDED_ABOVE = 1.10


def preload() -> None:
    """Import what the workloads use, so no import lands inside a timed span."""
    import importlib

    for name in (
        "numpy", "scipy.linalg", "scipy.special", "scipy.interpolate",
        "repro.atoms", "repro.backends.batched", "repro.backends.device",
        "repro.basis.basis_set", "repro.config", "repro.core", "repro.core.flags",
        "repro.dfpt.polarizability", "repro.dfpt.response", "repro.dft.hamiltonian",
        "repro.dft.scf", "repro.fleet", "repro.grids.atom_grid", "repro.grids.sparsity",
        "repro.mapping.memory_model", "repro.obs.bench", "repro.obs.report",
        "repro.obs.tracer", "repro.runtime.machines", "repro.service.jobs",
        "repro.service.statestore", "repro.service.worker", "repro.utils.timing",
        "repro.verify.invariants",
    ):
        importlib.import_module(name)


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-reference", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    unpinned = [k for k in PINNED if os.environ.get(k) != "1"]
    if unpinned or "PYTHONHASHSEED" not in os.environ:
        print(f"child.py must be launched by run.py (unpinned: {unpinned})", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    preload()
    import_s = time.perf_counter() - _STARTED

    from pathlib import Path

    from spans import median
    from workloads import OP_ALIASES, Run, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = None
    if not (args.no_reference or args.smoke):
        with open(os.path.join(HERE, "reference.json")) as handle:
            reference = json.load(handle).get(args.workload)

    out_dir = Path(args.out_dir)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        reference=reference,
        scratch=out_dir / f"scratch-{os.getpid()}",
    )
    loaded = set(sys.modules)
    wall_0, cpu_0 = time.perf_counter(), cpu_seconds()
    run_workload(run)
    wall, cpu = time.perf_counter() - wall_0, cpu_seconds() - cpu_0
    late = sorted(m for m in set(sys.modules) - loaded if m.startswith(("repro", "scipy", "numpy")))
    if late:
        run.notes.append("imported while measuring: " + ", ".join(late))

    probe = run.probe
    first, last = probe.thirds()
    speed_factor = median(probe.samples_ms) / probe.REF_MS
    end_to_end = dict(run.end_to_end)
    per_layer = dict(run.per_layer)
    if run.traced:
        per_layer.update(
            {
                "proc.import_s": import_s,
                "proc.cpu_s": cpu,
                "proc.wall_over_cpu": wall / cpu,
                "calib.matmul_ms": median(probe.matmul_ms),
                "calib.pyloop_ms": median(probe.pyloop_ms),
                "calib.samples": len(probe.samples_ms),
                "calib.speed_factor": speed_factor,
                "calib.drift_frac": last / first - 1.0,
            }
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        run.rec.write(out_dir / f"trace-{args.workload}.json")
    print(
        json.dumps(
            {
                "workload": run.workload,
                "seed": run.seed,
                "traced": run.traced,
                "attempted": run.attempted,
                "failed": run.failed,
                "failures": run.failures,
                "contended": wall / cpu > CONTENDED_ABOVE,
                "wall_over_cpu": wall / cpu,
                "speed": {
                    "factor": speed_factor,
                    "samples": len(probe.samples_ms),
                    "first_third_ms": first,
                    "last_third_ms": last,
                },
                "raw": run.raw,
                "aliases": OP_ALIASES[run.workload],
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "shares": run.shares,
                "notes": run.notes,
                "observed": run.observed,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
