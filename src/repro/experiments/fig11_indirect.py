"""Figure 11 — init-phase speedup from eliminating indirect accesses.

The grid-partitioning initialization contains the
``coord_center[atom_list[i_center]]`` pattern; Section 4.3 replaces it
with a permuted direct array.  Speedups are largest on HPC #1 (long
off-chip latency, no latency hiding) and shrink as ranks grow (fixed
launch/compute costs dominate once per-rank point counts are small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.phasemodel import PhaseModel
from repro.experiments.common import flag_pairs
from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD, MachineSpec
from repro.utils.reports import TableFormatter

#: Paper sweep: atoms -> rank counts (Fig. 11's x axis).
PAPER_SWEEP: Dict[int, Tuple[int, ...]] = {
    30002: (256, 512, 1024, 2048, 4096),
    60002: (1024, 2048, 4096, 8192),
    117602: (4096, 8192, 16384),
}


@dataclass
class Fig11Result:
    rows: List[Tuple[str, int, int, float, float, float]]
    # (machine, atoms, ranks, t_indirect, t_direct, speedup)

    def render(self) -> str:
        t = TableFormatter(
            ["machine", "atoms", "ranks", "init before", "init after", "speedup"],
            title="Fig 11: indirect-access elimination, init phase",
        )
        for m, atoms, p, t0, t1, s in self.rows:
            t.add_row([m, atoms, p, f"{t0*1e3:.2f} ms", f"{t1*1e3:.2f} ms", f"{s:.1f}x"])
        return t.render()

    def speedups(self, machine_name: str) -> List[float]:
        return [s for m, _, _, _, _, s in self.rows if m == machine_name]


def run_fig11_indirect(
    sweep: Dict[int, Sequence[int]] = None,
    machines: Sequence[MachineSpec] = (HPC1_SUNWAY, HPC2_AMD),
) -> Fig11Result:
    """Init-phase before/after times across the sweep."""
    pairs = flag_pairs(
        sweep or PAPER_SWEEP, machines, "indirect_elimination", PhaseModel.init_time
    )
    return Fig11Result(
        rows=[
            ("HPC#1" if m is HPC1_SUNWAY else "HPC#2", atoms, p, before, after, before / after)
            for m, atoms, p, before, after in pairs
        ]
    )
