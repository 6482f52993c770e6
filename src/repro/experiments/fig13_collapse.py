"""Figure 13 — fine-grained parallelization of the (p, m) loop.

Collapsing the Adams-Moulton nest (parallel width p_max+1 = 10) into a
flat loop of width (p_max+1)^2 = 100 lets a full GPU wavefront stay
busy; the v^(1) phase gains grow with rank count (the producer kernel
is a larger share of the shrinking per-rank work) up to the paper's
1.34x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.phasemodel import PhaseModel
from repro.experiments.common import flag_pairs
from repro.runtime.machines import HPC2_AMD
from repro.utils.reports import TableFormatter

#: Paper sweep (subset shown per atom count).
PAPER_SWEEP_13: Dict[int, Tuple[int, ...]] = {
    15002: (128, 256, 512, 1024, 2048),
    30002: (256, 512, 1024, 2048, 4096),
    60002: (1024, 2048, 4096, 8192),
    117602: (4096, 8192, 16384, 32768),
    200012: (16384, 32768),
}


@dataclass
class Fig13Result:
    rows: List[Tuple[int, int, float, float, float]]
    # (atoms, ranks, t_nested, t_collapsed, speedup)

    def render(self) -> str:
        t = TableFormatter(
            ["atoms", "ranks", "v(1) nested", "v(1) collapsed", "speedup"],
            title="Fig 13: fine-grained parallelism (loop collapse), HPC#2",
        )
        for atoms, p, t0, t1, s in self.rows:
            t.add_row([atoms, p, f"{t0:.3f} s", f"{t1:.3f} s", f"{s:.2f}x"])
        return t.render()

    def speedups(self) -> List[float]:
        return [s for _, _, _, _, s in self.rows]


def run_fig13_collapse(sweep: Dict[int, Sequence[int]] = None) -> Fig13Result:
    """Rho-phase time with the nested vs collapsed (p, m) loop."""
    pairs = flag_pairs(
        sweep or PAPER_SWEEP_13, (HPC2_AMD,), "loop_collapse", PhaseModel.rho_time
    )
    return Fig13Result(
        rows=[(atoms, p, t0, t1, t0 / t1) for _, atoms, p, t0, t1 in pairs]
    )
