#!/usr/bin/env python
"""Alternating pairs of the wall-clock benchmark between two checkouts.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

First byte-compiles ``src`` and ``benchmarks/e2e`` in both trees, so
neither side compiles on import where the other reads a cache (with
``PYTHONDONTWRITEBYTECODE=1`` set, a tree without ``__pycache__``
recompiles on every run and reads about 0.9 MB more peak RSS).  Then,
for every seed from A to B, runs ``benchmarks/e2e/run.py --workload W
--seed S --trace 0`` once in each tree, the parent first on the first,
third, ... pair and the change first on the others, so a machine that
drifts during the session drifts on both sides.  It then prints, per
end-to-end metric of ``BENCHMARK.json``, each side's median [q1, q3],
the pairs the change wins and the verdict a claimed gain needs: the
change wins at least nine of every ten pairs, and the medians are
further apart, in the metric's better direction, than the parent's
interquartile range.  A run with a failed operation gets no verdict:
the tool stops and exits 1.

It reads the harness's result line only; it imports nothing from
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

def parse_seeds(text: str) -> List[int]:
    """``"501-510"`` → 501, …, 510; a single ``"7"`` is one seed."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median and quartiles ``(median, q1, q3)``, interpolated between
    the samples (the ``inclusive`` method, numpy's default)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[int, bool]:
    """``(pairs the change wins, whether the gain holds)`` for one metric.

    Pair *i* is ``(parent[i], change[i])``; a tie wins nothing.  The
    gain holds when the change wins at least nine tenths of the pairs
    and its median beats the parent's by more than the parent's
    interquartile range.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = summary(parent)
    gap = sign * (p_med - summary(change)[0])
    return wins, 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1


#: What a harness run imports from its tree, byte-compiled before the
#: first pair.
COMPILED = ("src", "benchmarks/e2e")


def compile_tree(tree: Path) -> None:
    """Byte-compile *tree*'s :data:`COMPILED` directories; ``compileall``
    writes its caches whatever ``PYTHONDONTWRITEBYTECODE`` says."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", *COMPILED],
        cwd=tree, stdout=subprocess.DEVNULL, check=True,
    )


def run_once(tree: Path, workload: str, seed: int) -> Dict:
    """One harness run in *tree*; its result line as a dict."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"failed": 1, "attempted": 0, "metrics": {}}
    if done.returncode != 0:
        doc["failed"] = max(1, doc.get("failed", 0))
    return doc


def collect(
    trees: Tuple[Path, Path], workload: str, seeds: Sequence[int]
) -> Tuple[List[Dict], List[Dict]]:
    """The parent's and the change's result lines, one pair per seed,
    after both trees are byte-compiled."""
    for tree in trees:
        compile_tree(tree)
    sides: Tuple[List[Dict], List[Dict]] = ([], [])
    for index, seed in enumerate(seeds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for side in order:
            doc = run_once(trees[side], workload, seed)
            name = ("parent", "change")[side]
            values = {k: m["value"] for k, m in doc.get("metrics", {}).items()}
            print(f"seed {seed} {name}: {doc.get('failed')} of {doc.get('attempted')} "
                  f"operations failed; {json.dumps(values)}", file=sys.stderr)
            sides[side].append(doc)
    return sides


def report(
    parent: Sequence[Dict], change: Sequence[Dict], directions: Dict[str, str]
) -> List[str]:
    """One line per end-to-end metric; a run with failed operations
    raises SystemExit (exit status 1) instead."""
    failed = [doc for doc in list(parent) + list(change) if doc.get("failed")]
    if failed:
        raise SystemExit(f"{len(failed)} run(s) had failed operations: no verdict")
    lines = [f"{len(parent)} pairs"]
    for name, better in directions.items():
        p = [doc["metrics"][name]["value"] for doc in parent]
        c = [doc["metrics"][name]["value"] for doc in change]
        wins, holds = verdict(p, c, better)
        (pm, pq1, pq3), (cm, cq1, cq3) = summary(p), summary(c)
        lines.append(
            f"{name:<20} parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}]  change {cm:.5g} "
            f"[{cq1:.5g}, {cq3:.5g}]  ({better} is better) change wins "
            f"{wins}/{len(p)}: {'gain holds' if holds else 'no gain'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B")
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json") as handle:
        directions = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    parent, change = collect((args.parent, args.change), args.workload, args.seeds)
    lines = report(parent, change, directions)
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}:")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
