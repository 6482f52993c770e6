"""Communication attribution (DESIGN §11.4, paper Fig. 10).

Two complementary sources feed this module:

* recorded ``comm``-category spans / ``comm.*`` counters from the
  simulated MPI layer — what one run actually moved;
* the analytic reduction-scheme estimators of
  :mod:`repro.comm.schemes` — what each scheme *would* cost at a given
  scale, reproducing the paper's packed-vs-unpacked comparison.

>>> from repro.obs.analyze.timeline import Timeline, TimelineEvent
>>> tl = Timeline(events=[
...     TimelineEvent(0, "allreduce", 0.0, 1.0, category="comm",
...                   nbytes=4096, scheme="packed"),
...     TimelineEvent(0, "allreduce", 1.0, 2.0, category="comm",
...                   nbytes=4096, scheme="packed")])
>>> comm_matrix(tl)[("packed", "allreduce")]
CommCell(calls=2, nbytes=8192, seconds=2.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.comm.schemes import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
    ReductionReport,
)
from repro.errors import CommunicationError
from repro.obs.analyze.timeline import Timeline
from repro.runtime.machines import MachineSpec


@dataclass(frozen=True)
class CommCell:
    """Aggregate of one (scheme, operation) communication bucket."""

    calls: int
    nbytes: int
    seconds: float


def comm_matrix(
    timeline: Timeline,
) -> Dict[Tuple[str, str], CommCell]:
    """Aggregate ``comm``-category events into a (scheme, op) matrix.

    Events without an explicit ``scheme`` attribute land in the
    ``"flat"`` bucket (the simulated MPI layer's direct collectives).
    """
    acc: Dict[Tuple[str, str], List[float]] = {}
    for e in timeline.events:
        if e.category != "comm":
            continue
        key = (e.scheme or "flat", e.phase)
        cell = acc.setdefault(key, [0, 0, 0.0])
        cell[0] += 1
        cell[1] += e.nbytes
        cell[2] += e.duration
    return {
        key: CommCell(calls=int(c[0]), nbytes=int(c[1]), seconds=c[2])
        for key, c in acc.items()
    }


def render_comm_matrix(
    matrix: Mapping[Tuple[str, str], CommCell],
    counters: Mapping[str, float] = (),  # type: ignore[assignment]
    label: str = "run",
) -> str:
    """Deterministic table of recorded communication, heaviest first."""
    from repro.utils.reports import TableFormatter, format_bytes, format_seconds

    table = TableFormatter(
        ["scheme", "operation", "calls", "bytes", "time"],
        title=f"recorded communication [{label}]",
    )
    for key in sorted(matrix, key=lambda k: (-matrix[k].nbytes, k)):
        cell = matrix[key]
        table.add_row(
            [key[0], key[1], cell.calls, format_bytes(cell.nbytes),
             format_seconds(cell.seconds)]
        )
    lines = [table.render()] if matrix else [f"no recorded communication [{label}]"]
    for name, value in dict(counters).items():
        lines.append(f"{name}: {value:g}")
    return "\n".join(lines)


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
