#!/usr/bin/env python
"""Packed hierarchical collectives, executed on real data (Section 3.2).

Runs all three reduction schemes over actual per-rank rho_multipole
partial arrays on a simulated 64-rank HPC#2 cluster, verifies the
results agree bit-for-bit (packing) / to round-off (hierarchy), and
prints each scheme's price, here and at paper scale.

    python examples/communication_schemes.py
"""

import numpy as np

from repro.comm import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
)
from repro.experiments.fig10_allreduce import rho_multipole_row_bytes
from repro.runtime import HPC1_SUNWAY, HPC2_AMD, SimCluster
from repro.utils.reports import TableFormatter, format_seconds


def main() -> None:
    rng = np.random.default_rng(42)
    cluster = SimCluster(HPC2_AMD, 64)
    n_rows, row_len = 300, 49
    data = [rng.normal(size=(n_rows, row_len)) for _ in range(64)]
    reference = np.sum(data, axis=0)

    print("Executable check on a 64-rank simulated HPC#2 cluster "
          f"({n_rows} rho_multipole rows):")
    for scheme in (
        BaselineRowwiseAllreduce(),
        PackedAllreduce(rows_cap=64),
        PackedHierarchicalAllreduce(rows_cap=64),
    ):
        err = np.abs(scheme.reduce(cluster, data) - reference).max()
        rep = scheme.estimate(HPC2_AMD, 64, n_rows, data[0][0].nbytes)
        print(f"  {rep.scheme:22s} {rep.n_collectives:4d} collectives, "
              f"max error {err:.2e}, modeled "
              f"{format_seconds(rep.communication_time + rep.local_update_time)}")

    row_bytes = rho_multipole_row_bytes()
    print(f"\nModeled at paper scale (row = {row_bytes / 1024:.1f} KB, "
          "30 002 atoms):")
    for machine in (HPC1_SUNWAY, HPC2_AMD):
        table = TableFormatter(
            ["ranks", "baseline", "packed", "hierarchical"],
            title=f"\n{machine.name}",
        )
        for ranks in (256, 1024, 4096, 8192):
            b = BaselineRowwiseAllreduce().estimate(machine, ranks, 30002, row_bytes)
            p = PackedAllreduce().estimate(machine, ranks, 30002, row_bytes)
            cells = [ranks, format_seconds(b.total_time),
                     f"{format_seconds(p.total_time)} ({b.total_time / p.total_time:.0f}x)"]
            if machine.shm_windows:
                h = PackedHierarchicalAllreduce().estimate(
                    machine, ranks, 30002, row_bytes
                )
                cells.append(
                    f"{format_seconds(h.total_time)} ({b.total_time / h.total_time:.0f}x)"
                )
            else:
                cells.append("n/a (no SHM)")
            table.add_row(cells)
        print(table.render())


if __name__ == "__main__":
    main()
