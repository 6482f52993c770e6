"""Service-telemetry SLO benchmark: the committed steady/chaos scenario.

Runs the deterministic SLO scenario pair behind ``repro slo`` — a
steady drain of eight synthetic jobs over two workers, then the same
fleet under a seeded ``worker_crash`` FaultPlan that kills worker w0's
first two claims — and records the full windowed rollup document:
per-window counts, deterministic queue-wait/time-to-result percentiles,
crash/cache-hit rates, and the alert transitions the default rule set
produces (the chaos run must fire ``crash_rate_spike`` at window 0 and
clear it at window 2; the steady run must stay silent).

The measurement lives in :func:`repro.obs.telemetry.slo.slo_emission`
(shared with the ``repro bench-check`` regression gate); this script
prints the scenario dashboards, writes ``BENCH_slo.json`` at the repo
root, and fails if the alert contract is violated.  The scenario runs
on the logical clock; measured service latencies are the
``service_mix`` workload of ``BENCHMARK.json``
(``python benchmarks/e2e/run.py``).  Run::

    PYTHONPATH=src python benchmarks/bench_slo.py

or regenerate the committed baseline in place with ``--output``.
Compare a fresh run against the committed baseline with
``make slo-check`` (part of ``make verify``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.report import Provenance
from repro.obs.telemetry import render_slo_emission, slo_emission
from repro.obs.telemetry.slo import DEFAULT_WINDOW, SLO_SEED

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_slo.json"


def run(seed: int, window: float) -> dict:
    emission = slo_emission(seed=seed, window=window)
    print(render_slo_emission(emission))
    print()
    print(Provenance(**emission["provenance"]).footer_markdown())
    return emission


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SLO_SEED)
    parser.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    report = run(args.seed, args.window)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    steady = report["scenarios"]["steady"]["alerts"]
    chaos = report["scenarios"]["chaos"]["alerts"]
    broken = []
    if steady["total_fired"]:
        broken.append("steady scenario fired alerts")
    if "crash_rate_spike" not in chaos["by_rule"]:
        broken.append("chaos scenario did not fire crash_rate_spike")
    if broken:
        print("WARNING: " + "; ".join(broken))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
