"""Reduction-scheme cost tables (DESIGN §11.4, paper Fig. 10).

The analytic estimators of :mod:`repro.comm.schemes` price what each
reduction scheme *would* cost at a given scale, reproducing the paper's
packed-vs-unpacked comparison for ``repro analyze scaling``.

>>> from repro.runtime.machines import HPC2_AMD
>>> [name for name, _ in scheme_cost_table(HPC2_AMD, 64, 512, 4096)][:2]
['baseline', 'packed']
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.comm.schemes import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
    ReductionReport,
)
from repro.errors import CommunicationError
from repro.runtime.machines import MachineSpec


def scheme_cost_table(
    machine: MachineSpec,
    n_ranks: int,
    n_rows: int,
    row_bytes: int,
) -> List[Tuple[str, ReductionReport]]:
    """Estimate every reduction scheme at one problem scale (Fig. 10).

    Schemes a machine cannot run (hierarchical packing needs shared-
    memory windows) are skipped rather than failed, so the comparison
    table always renders.
    """
    rows: List[Tuple[str, ReductionReport]] = []
    for scheme in (
        BaselineRowwiseAllreduce(),
        PackedAllreduce(),
        PackedHierarchicalAllreduce(),
    ):
        try:
            report = scheme.estimate(machine, n_ranks, n_rows, row_bytes)
        except CommunicationError:
            continue
        rows.append((report.scheme, report))
    return rows


def render_scheme_costs(
    rows: Sequence[Tuple[str, ReductionReport]],
    machine_name: str,
    n_ranks: int,
) -> str:
    """Packed-vs-unpacked cost table in the style of the paper's Fig. 10."""
    from repro.utils.reports import TableFormatter, format_bytes, format_seconds

    table = TableFormatter(
        ["scheme", "collectives", "comm", "local", "peak pack", "total"],
        title=f"reduction-scheme cost model [{machine_name}, {n_ranks} ranks]",
    )
    baseline_total = rows[0][1].total_time if rows else 0.0
    speedups = []
    for name, rep in rows:
        table.add_row(
            [
                name,
                rep.n_collectives,
                format_seconds(rep.communication_time),
                format_seconds(rep.local_update_time),
                format_bytes(rep.peak_pack_bytes),
                format_seconds(rep.total_time),
            ]
        )
        if baseline_total > 0 and rep.total_time > 0:
            speedups.append(f"{name}: {baseline_total / rep.total_time:.2f}x")
    lines = [table.render()]
    if speedups:
        lines.append("speedup vs baseline: " + ", ".join(speedups))
    return "\n".join(lines)
