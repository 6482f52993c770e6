"""Fleet throughput: N molecules in one wave vs N isolated runs.

A screening-service workload — many near-duplicate small jobs (H2
bond-length variants, distinct request seeds) — executed twice:

* ``sequential`` — one isolated ``run_physics`` per request, each
  paying its own substrate build and every phase call;
* ``fleet``      — :func:`~repro.fleet.driver.run_fleet`: substrates
  built once per geometry, identical-physics requests computed once
  per group, the groups run one after another.

Every per-request result payload is asserted byte-identical between
the two modes before any number is reported.  The measurement lives in
:func:`repro.obs.bench.fleet_emission` (shared with the ``repro
bench-check`` regression gate); this script prints the table, writes
``BENCH_fleet.json`` at the repo root — provenance block included —
and, when the distinct count divides the request count, fails unless
the deterministic speedup of the runs' device bills (HPC#2) is the
dedup factor, requests over distinct physics.  No clock is read: the measured
sequential-vs-fleet wall is ``op_a_ms`` / ``op_b_ms`` of the
``service_mix`` workload of ``BENCHMARK.json``
(``python benchmarks/e2e/run.py``).  Run::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

or via ``make bench-smoke``.  Compare a fresh run against the
committed baseline with ``make fleet-check`` (part of ``make verify``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.bench import fleet_emission
from repro.obs.report import Provenance
from repro.utils.reports import TableFormatter, format_seconds

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Full-run fleet shape: 16 requests over 4 distinct bond lengths.
N_REQUESTS = 16
N_DISTINCT = 4

#: How far the model speedup may sit from the dedup factor: the two
#: modeled sums only differ in float association.
SPEEDUP_RTOL = 1e-9


def run(n_requests: int, n_distinct: int, level: str) -> dict:
    report = fleet_emission(
        level=level, n_requests=n_requests, n_distinct=n_distinct
    )
    print(
        f"fleet of {n_requests} H2 jobs over {n_distinct} bond-length "
        f"variant(s) ({level}, billed on HPC#2): "
        f"{report['groups']} physics group(s)"
    )
    table = TableFormatter(
        ["mode", "modeled", "launches", "molecules/s (model)"],
        title="sequential vs fleet (per-request payloads byte-identical)",
    )
    model = report["model"]
    seq_modeled = model["sequential"]["modeled_seconds"]
    fleet_modeled = model["fleet"]["modeled_seconds"]
    table.add_row(
        [
            "sequential",
            format_seconds(seq_modeled),
            f"{report['launches']['sequential']:,}",
            f"{n_requests / seq_modeled:,.0f}" if seq_modeled > 0 else "-",
        ]
    )
    table.add_row(
        [
            "fleet",
            format_seconds(fleet_modeled),
            f"{report['launches']['fleet']:,}",
            f"{n_requests / fleet_modeled:,.0f}" if fleet_modeled > 0 else "-",
        ]
    )
    print(table.render())
    print(
        f"model throughput speedup: "
        f"{model['molecules_per_second_speedup']:.2f}x"
    )
    print(Provenance(**report["provenance"]).footer_markdown())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller fleet (8 jobs over 2)"
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--distinct", type=int, default=None)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    n_requests = args.requests or (8 if args.quick else N_REQUESTS)
    n_distinct = args.distinct or (2 if args.quick else N_DISTINCT)
    report = run(n_requests, n_distinct, level="minimal")
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    speedup = report["model"]["molecules_per_second_speedup"]
    dedup = n_requests / n_distinct
    # Equal-sized groups: each distinct physics is paid once instead of
    # dedup times, so the model speedup is exactly that factor.
    if n_requests % n_distinct == 0 and abs(speedup - dedup) > SPEEDUP_RTOL * dedup:
        print(
            f"WARNING: model throughput speedup {speedup!r}x is not the "
            f"dedup factor {dedup:g}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
