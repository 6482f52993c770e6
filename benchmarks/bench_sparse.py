"""Block-sparse screening payoff on a polyethylene chain.

Counts the work of repeated Sumup + H phase sweeps (the SCF/CPSCF hot
loop) on an all-trans H(C2H4)nH chain — the paper's linear-scaling workload shape —
under two builders sharing one basis/grid/batch decomposition:

* ``dense``    — ``screening_threshold = 0``: every batch contracts the
  functions of its relevant atoms, the exact pre-screening code path.
* ``screened`` — the default screening threshold: each batch contracts
  only those whose screened reach touches it.

The measurement itself lives in :mod:`repro.obs.bench` (shared with the
``repro bench-check`` regression gate); this script prints the table and
writes ``BENCH_sparse.json`` at the repo root — provenance block
included: the (batch, atom) blocks and elements the mask keeps, against
the relevant-atom ones the dense build runs.  No clock is
read: the measured dense-vs-screened wall is ``op_a_ms`` / ``op_b_ms``
of the ``chain32_kernels`` workload of ``BENCHMARK.json``
(``python benchmarks/e2e/run.py``).  Run::

    PYTHONPATH=src python benchmarks/bench_sparse.py [--quick]

or via ``make bench-smoke``.  Screened outputs are checked against the
dense ones within the physics tolerance before anything is reported.
Compare a fresh run against the committed baseline with
``make bench-check``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.bench import sparse_emission
from repro.obs.report import Provenance
from repro.utils.reports import TableFormatter

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sparse.json"

#: Chain length of the committed baseline (98 atoms).
N_UNITS = 16


def run(n_units: int, n_sweeps: int, level: str) -> dict:
    report = sparse_emission(n_units, n_sweeps, level=level)
    stats = report["sparsity"]
    print(
        f"polyethylene H(C2H4)nH, n={n_units} ({report['n_atoms']} atoms, "
        f"{level}): {report['n_points']:,} grid points x "
        f"{report['n_basis']} basis functions, threshold="
        f"{report['threshold']:g}, {n_sweeps} Sumup+H sweeps"
    )
    table = TableFormatter(
        ["builder", "blocks evaluated", "fill", "reduction"],
        title="dense vs screened (outputs agree within physics tolerance)",
    )
    table.add_row(
        [
            "dense",
            f"{stats['blocks_relevant']:,}",
            "1.000",
            "1.00x",
        ]
    )
    table.add_row(
        [
            "screened",
            f"{stats['blocks_active']:,}",
            f"{stats['fill_fraction']:.3f}",
            f"{report['block_reduction']:.2f}x",
        ]
    )
    print(table.render())
    print(
        f"max |dense - screened|: density "
        f"{report['diff']['density_max_diff']:.3e}, potential "
        f"{report['diff']['potential_max_diff']:.3e}"
    )
    print(Provenance(**report["provenance"]).footer_markdown())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer sweeps (same chain)"
    )
    parser.add_argument("--units", type=int, default=N_UNITS)
    parser.add_argument("--sweeps", type=int, default=None)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    n_sweeps = args.sweeps or (2 if args.quick else 4)
    report = run(args.units, n_sweeps, level="minimal")
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
