"""The repo's wall-clock benchmark: four workloads, end to end and layer by layer.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as ``BENCHMARK.json`` declares it.  Prints every
    metric by name with its unit and ends with one JSON line
    ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/e2e/run.py [--traced] [--repeat N] [--seed N]``
    All four workloads one after another (never at once: the machine has two
    cores), untraced, then traced with ``--traced``.  ``--repeat N`` does the
    whole set N times and prints min / median / max per metric, which is what
    the bound rule in the README is evaluated from.

``--write-reference`` regenerates ``reference.json`` from the code as it is.

Each run is a fresh child process (``child.py``) with BLAS pinned to one
thread and a fixed ``PYTHONHASHSEED``.  The exit code is non-zero when any
operation failed, so a benchmark never times a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Journals and span files go here; inside the checkout, ignored by git.
OUT_DIR = HERE / "out"
DEFAULT_SEED = 2023
#: A child that has not finished by then is killed (the contract allows 180 s).
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from spans import median  # noqa: E402 — stdlib-only module next to this file


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(
    workload: str, seed: int, seconds: float, trace: int, extra: Optional[List[str]] = None
) -> Dict[str, Any]:
    """One workload in one fresh, pinned process; returns its result document."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # The program asks git for its commit: keep that search in the checkout.
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ] + (extra or [])
    # subprocess.run waits for the child, and kills and reaps it on timeout.
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_result(doc: Dict[str, Any], units: Dict[str, str]) -> None:
    aliases = doc["aliases"]
    mode = "traced" if doc["traced"] else "untraced"
    marker = "  ** contended **" if doc["contended"] else ""
    speed = doc["speed"]
    print(
        f"== {doc['workload']} ({mode}, seed {doc['seed']}): "
        f"{doc['attempted']} operations attempted, {doc['failed']} failed{marker}"
    )
    print(
        f"   noise guard: wall/cpu {doc['wall_over_cpu']:.3f}; speed probe {speed['samples']} "
        f"samples, first third {speed['first_third_ms']:.3f} ms, last third "
        f"{speed['last_third_ms']:.3f} ms, run median {speed['factor']:.4f} x the reference"
    )
    for name, value in doc["end_to_end"].items():
        alias = f"  = {aliases[name]}" if name in aliases else ""
        raw = f"  (raw {doc['raw'][name]:.4f})" if name in doc["raw"] else ""
        print(f"   {name:<20} {value:>12.4f} {units.get(name, ''):<4}{raw}{alias}")
    for name, value in sorted(doc["per_layer"].items()):
        print(f"   {name:<36} {value:>16.6g} {units.get(name, '')}")
    for layer, share in sorted(doc["shares"].items(), key=lambda kv: -kv[1]):
        print(f"   share of time to solution: {layer:<18} {100 * share:6.2f} %")
    for note in doc["notes"]:
        print(f"   {note}")
    for failure in doc["failures"]:
        print(f"   FAILED: {failure}")


def declared(benchmark: Dict[str, Any]):
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    return units, [m["name"] for m in benchmark["end_to_end"]], [
        m["name"] for m in benchmark["per_layer"]
    ]


def one_run(args: argparse.Namespace) -> int:
    """The contract's form: one workload, one result line."""
    benchmark = load_benchmark()
    units, end_to_end, per_layer = declared(benchmark)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    doc = run_child(args.workload, args.seed, args.seconds, args.trace)
    print_result(doc, units)
    if args.trace:
        # A layer this workload never enters did no work and took no time.
        values = {name: doc["per_layer"].get(name, 0.0) for name in per_layer}
        unknown = sorted(set(doc["per_layer"]) - set(per_layer))
    else:
        values = {name: doc["end_to_end"][name] for name in end_to_end}
        unknown = sorted(set(doc["end_to_end"]) - set(end_to_end))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if doc["failed"] == 0 else 1


def full_set(args: argparse.Namespace) -> int:
    """All workloads, one after another; ``--repeat`` summarises the spread."""
    benchmark = load_benchmark()
    units, _, _ = declared(benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    failed = 0
    series: Dict[tuple, List[float]] = {}
    for repeat in range(args.repeat):
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                doc = run_child(name, args.seed + repeat, seconds, trace)
                print_result(doc, units)
                failed += doc["failed"]
                if trace == 0:
                    untraced_tts = doc["end_to_end"]["time_to_solution_s"]
                    for metric, value in doc["end_to_end"].items():
                        series.setdefault((name, metric), []).append(value)
                else:
                    traced_tts = doc["end_to_end"]["time_to_solution_s"]
                    print(
                        f"   traced vs untraced time_to_solution_s: "
                        f"{100 * (traced_tts / untraced_tts - 1.0):+.2f} %"
                    )
    if args.repeat > 1:
        print(f"== {args.repeat} repeats: min / median / max, (max - min) / median")
        for (name, metric), values in series.items():
            mid = median(values)
            print(
                f"   {name:<16} {metric:<20} {min(values):12.4f} {mid:12.4f} "
                f"{max(values):12.4f} {units[metric]:<4} {(max(values) - min(values)) / mid:8.4f}"
            )
    return 0 if failed == 0 else 1


def write_reference(args: argparse.Namespace) -> int:
    """Regenerate ``reference.json`` from what the code computes now."""
    reference = {}
    for name in ("chain26_physics", "service_mix"):
        doc = run_child(name, args.seed, 0.0, 0, ["--no-reference"])
        if doc["failed"]:
            raise SystemExit(f"{name}: {doc['failures']}")
        reference[name] = doc["observed"]
    text = json.dumps(reference, indent=1, sort_keys=True)
    # One line per innermost array, so a tensor reads as three rows.
    text = re.sub(
        r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text
    )
    (HERE / "reference.json").write_text(text + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload and end with the result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="sampling window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="full set: add the traced pass")
    parser.add_argument("--repeat", type=int, default=1, help="full set: repeat N times")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args)
    if args.workload:
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        return one_run(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
