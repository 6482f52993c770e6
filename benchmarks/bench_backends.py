"""The host engine in two cache regimes, plus the warm run's device bill.

Counts the work of repeated Sumup + H phase sweeps (the SCF/CPSCF hot
loop) on water under two builders sharing one substrate, and prices it:

* ``warm``   — the host engine at its default block-cache budget: every
  basis block is evaluated once and served from the cache afterwards.
* ``cold``   — the same engine at budget 0: every block is evaluated on
  every pass (over a budget only the views outside the resident set
  are; at budget 0 no view is resident).
* ``device`` — the bill of the ``warm`` run on the HPC#2 accelerator
  (:func:`repro.backends.device.device_bill`): each Sumup / H call one
  launch priced by the scale model's own kernel, plus the bytes moved.

The measurement itself lives in :mod:`repro.obs.bench` (shared with the
``repro bench-check`` regression gate), which refuses to report unless
both host rows' outputs are bit-identical and each evaluated exactly
the number of blocks its regime defines.  This script prints the
counter table and writes ``BENCH_backends.json`` at the repo root,
including the provenance block the regression gate and EXPERIMENTS.md
footers rely on.  No clock is read: the measured Sumup / H wall of these
kernels is the ``chain32_kernels`` workload of ``BENCHMARK.json``
(``python benchmarks/e2e/run.py``).  Run::

    PYTHONPATH=src python benchmarks/bench_backends.py [--quick]

or via ``make bench-smoke``.  Compare a fresh run against the committed
baseline with ``make bench-check``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.bench import backend_emission
from repro.obs.report import Provenance
from repro.utils.reports import TableFormatter, format_bytes, format_seconds

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"


def run(n_sweeps: int, level: str) -> dict:
    report = backend_emission(level, n_sweeps)
    print(
        f"water ({level}): {report['n_points']:,} grid points x "
        f"{report['n_basis']} basis functions, {n_sweeps} Sumup+H sweeps"
    )
    table = TableFormatter(
        ["row", "blocks evaluated", "cache peak"],
        title="host cache regimes (bit-identical outputs)",
    )
    rows = report["backends"]
    for name in ("warm", "cold"):
        profile = rows[name]["profile"]
        table.add_row(
            [
                name,
                profile["phases"]["basis"]["calls"],
                format_bytes(profile["cache"]["peak_bytes"])
                if profile["cache"]["misses"]
                else "-",
            ]
        )
    print(table.render())
    bill = rows["device"]["bill"]
    print(
        f"device bill of the warm run [{bill['machine']}]: "
        f"{bill['launches']} launches, "
        f"{format_seconds(bill['modeled_seconds'])} modeled, "
        f"{format_bytes(bill['bytes_transferred'])} transferred"
    )
    print(Provenance(**report["provenance"]).footer_markdown())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="minimal settings, fewer sweeps"
    )
    parser.add_argument("--sweeps", type=int, default=None)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    level = "minimal" if args.quick else "light"
    n_sweeps = args.sweeps or (4 if args.quick else 8)
    report = run(n_sweeps, level)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
