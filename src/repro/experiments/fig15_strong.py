"""Figure 15 — strong scaling.

(a) speedup curves for the 60 002-atom chain on HPC #1, HPC #2 (CPU
    only) and HPC #2 (with GPUs);
(b) time to solution per CPSCF cycle on HPC #2 (GPUs) across the
    polyethylene family — the paper's headline: one cycle on 200 002
    atoms completes within a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.simulator import PerturbationSimulator
from repro.experiments.common import polyethylene_simulator
from repro.obs.analyze.scaling import ScalingPoint, strong_scaling
from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD
from repro.utils.reports import TableFormatter, format_seconds

#: Paper rank grids for the 60 002-atom strong-scaling study.
STRONG_RANKS_HPC1: Tuple[int, ...] = (5000, 10000, 20000, 40000)
STRONG_RANKS_HPC2: Tuple[int, ...] = (1024, 2048, 4096, 8192)

#: Fig. 15(b): (atoms, ranks) pairs for time-per-cycle on HPC #2 GPUs.
TIME_PER_CYCLE_CASES: Tuple[Tuple[int, int], ...] = (
    (15002, 1024),
    (30002, 2048),
    (60002, 4096),
    (117602, 8192),
    (200012, 16384),
)


@dataclass
class StrongSeries:
    label: str
    ranks: List[int]
    cycle_seconds: List[float]

    def points(self) -> List[ScalingPoint]:
        """The series through the shared strong-scaling definition."""
        return strong_scaling(self.ranks, self.cycle_seconds)

    def speedups(self) -> List[float]:
        return [pt.speedup for pt in self.points()]

    def efficiencies(self) -> List[float]:
        return [pt.efficiency for pt in self.points()]


@dataclass
class Fig15Result:
    n_atoms: int
    series: List[StrongSeries]

    def render(self) -> str:
        t = TableFormatter(
            ["machine", "ranks", "cycle time", "speedup", "efficiency"],
            title=f"Fig 15(a): strong scaling, {self.n_atoms:,} atoms",
        )
        for s in self.series:
            for p, ct, sp, eff in zip(
                s.ranks, s.cycle_seconds, s.speedups(), s.efficiencies()
            ):
                t.add_row([s.label, p, format_seconds(ct), f"{sp:.2f}x", f"{eff*100:.0f}%"])
        return t.render()


def run_fig15_strong(
    n_atoms: int = 60002,
    ranks_hpc1: Sequence[int] = STRONG_RANKS_HPC1,
    ranks_hpc2: Sequence[int] = STRONG_RANKS_HPC2,
) -> Fig15Result:
    """Strong-scaling speedups on all three configurations."""
    sim = polyethylene_simulator(n_atoms)
    series = []
    series.append(
        StrongSeries(
            label="HPC#1",
            ranks=list(ranks_hpc1),
            cycle_seconds=[
                sim.run_model(HPC1_SUNWAY, p).cycle_seconds for p in ranks_hpc1
            ],
        )
    )
    series.append(
        StrongSeries(
            label="HPC#2 (CPU only)",
            ranks=list(ranks_hpc2),
            cycle_seconds=[
                sim.run_model(HPC2_AMD, p, use_accelerator=False).cycle_seconds
                for p in ranks_hpc2
            ],
        )
    )
    series.append(
        StrongSeries(
            label="HPC#2 (with GPUs)",
            ranks=list(ranks_hpc2),
            cycle_seconds=[
                sim.run_model(HPC2_AMD, p).cycle_seconds for p in ranks_hpc2
            ],
        )
    )
    return Fig15Result(n_atoms=n_atoms, series=series)


@dataclass
class Fig15bResult:
    rows: List[Tuple[int, int, Dict[str, float], float]]
    # (atoms, ranks, per-phase seconds, total)

    def render(self) -> str:
        t = TableFormatter(
            ["atoms", "ranks", "DM", "Sumup", "Rho", "H", "Comm", "cycle total"],
            title="Fig 15(b): time per CPSCF cycle, HPC#2 (GPUs)",
        )
        for atoms, p, phases, total in self.rows:
            t.add_row(
                [
                    atoms,
                    p,
                    *[format_seconds(phases[k]) for k in ("DM", "Sumup", "Rho", "H", "Comm")],
                    format_seconds(total),
                ]
            )
        return t.render()


def run_fig15b_time_per_cycle(
    cases: Sequence[Tuple[int, int]] = TIME_PER_CYCLE_CASES
) -> Fig15bResult:
    """Per-cycle phase breakdown across the chain family."""
    rows = []
    for atoms, ranks in cases:
        sim = polyethylene_simulator(atoms)
        rep = sim.run_model(HPC2_AMD, ranks)
        rows.append((atoms, ranks, rep.per_cycle_seconds, rep.cycle_seconds))
    return Fig15bResult(rows=rows)
