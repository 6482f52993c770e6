"""Tuner regression benchmark: tuned vs hand-picked default configs.

Runs the closed loop (:func:`repro.tune.tuner.tune`) over the two
committed bench workloads — the water molecule and a short polyethylene
chain — and records each full
:class:`~repro.tune.decision.TunerDecision`: searched space, predicted
and measured modeled costs of the short list, chosen configuration,
provenance.  The committed gate pins that

* the deterministic cost-model floats are byte-stable (a cost-model
  change trips the relative band and names the tuner), and
* the chosen config is never slower than the hand-picked default
  (``tuned_speedup_vs_default`` / ``predicted_speedup_vs_default``,
  ratios of those floats under the same band — both are >= 1 by the
  tuner's fallback guarantee, and this script refuses a baseline where
  either is not).

The measurement lives in :func:`repro.obs.bench.tuner_emission` (shared
with the ``repro bench-check`` regression gate); this script prints the
per-workload decision tables, writes ``BENCH_tuner.json`` at the repo
root, and fails if any decision came out slower than its default.
Every number is a counter or a modeled second; the repository's
measured walls are the workloads of ``BENCHMARK.json``
(``python benchmarks/e2e/run.py``).  Run::

    PYTHONPATH=src python benchmarks/bench_tuner.py [--quick]

or via ``make bench-smoke``.  Compare a fresh run against the committed
baseline with ``make tune-check`` (part of ``make verify``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.bench import tuner_emission
from repro.obs.report import Provenance
from repro.tune.decision import TunerDecision

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tuner.json"

#: Full-run measured-stage budget (distinct trial runs per workload).
BUDGET = 2

#: Ranks the mapping/comm terms are priced at.
N_RANKS = 4


def run(budget: int, n_ranks: int, level: str) -> dict:
    report = tuner_emission(level=level, n_ranks=n_ranks, budget=budget)
    for name, entry in sorted(report["workloads"].items()):
        decision = TunerDecision.from_dict(entry["decision"])
        print(f"=== {name} ===")
        print(decision.render_ascii())
        print()
    print(Provenance(**report["provenance"]).footer_markdown())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single-trial budget (model stage still prices everything)",
    )
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--ranks", type=int, default=N_RANKS)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    budget = args.budget or (1 if args.quick else BUDGET)
    report = run(budget, args.ranks, level="minimal")
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    slow = [
        name
        for name, entry in sorted(report["workloads"].items())
        if entry["tuned_speedup_vs_default"] < 1.0
        or entry["predicted_speedup_vs_default"] < 1.0
    ]
    if slow:
        print(
            "WARNING: tuned config slower than the hand-picked default "
            "for: " + ", ".join(slow)
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
