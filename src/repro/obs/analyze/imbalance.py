"""Per-phase load-imbalance attribution (DESIGN §11.3, paper Fig. 9).

Imbalance is always the one repo-wide definition —
:func:`repro.utils.balance.max_mean_imbalance` — applied to per-rank
busy seconds (recorded or modeled timelines) or per-rank grid-point
counts (mapping assignments).  This module ranks which phase suffers
most, names the hot ranks, and links the numbers back to the mapping
strategy that produced the distribution, mirroring the paper's
locality-vs-load-balancing comparison.

>>> from repro.obs.analyze.timeline import Timeline, TimelineEvent
>>> tl = Timeline(events=[TimelineEvent(0, "H", 0.0, 3.0),
...                       TimelineEvent(1, "H", 0.0, 1.0)])
>>> rows = phase_imbalances(tl)
>>> rows[0].phase, rows[0].imbalance
('H', 1.5)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.obs.analyze.timeline import Timeline
from repro.utils.balance import max_mean_imbalance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grids.batching import GridBatch
    from repro.mapping.strategies import BatchAssignment


@dataclass(frozen=True)
class PhaseImbalance:
    """One phase's load distribution across ranks."""

    phase: str
    imbalance: float  # max/mean busy-time ratio, 1.0 = perfect
    mean_seconds: float
    max_seconds: float
    hot_ranks: Tuple[int, ...]  # top-k busiest, busiest first

    @property
    def idle_fraction(self) -> float:
        """Wall-time share lost to waiting on the hottest rank."""
        if self.max_seconds <= 0.0:
            return 0.0
        return 1.0 - self.mean_seconds / self.max_seconds


def phase_imbalances(
    timeline: Timeline,
    top_k: int = 3,
    categories: Optional[Sequence[str]] = None,
) -> List[PhaseImbalance]:
    """Rank the phases of one timeline by load imbalance.

    Zero-work phases are skipped (imbalance is undefined for them);
    the result is sorted worst-first, ties broken by phase name so the
    dashboard is deterministic.
    """
    out: List[PhaseImbalance] = []
    for phase, row in timeline.busy_matrix(categories).items():
        loads = [row[r] for r in sorted(row)]
        total = sum(loads)
        if total <= 0.0:
            continue
        ranked = sorted(sorted(row), key=lambda r: (-row[r], r))
        out.append(
            PhaseImbalance(
                phase=phase,
                imbalance=max_mean_imbalance(loads),
                mean_seconds=total / len(loads),
                max_seconds=max(loads),
                hot_ranks=tuple(ranked[:top_k]),
            )
        )
    out.sort(key=lambda p: (-p.imbalance, p.phase))
    return out


def render_phase_imbalances(
    rows: Sequence[PhaseImbalance], label: str = "run"
) -> str:
    """Deterministic ASCII table, worst phase first."""
    from repro.utils.reports import TableFormatter, format_seconds

    table = TableFormatter(
        ["phase", "imbalance", "mean", "max", "idle%", "hot ranks"],
        title=f"per-phase load imbalance [{label}] (max/mean busy time)",
    )
    for p in rows:
        table.add_row(
            [
                p.phase,
                f"{p.imbalance:.3f}",
                format_seconds(p.mean_seconds),
                format_seconds(p.max_seconds),
                f"{p.idle_fraction * 100:.1f}%",
                ",".join(str(r) for r in p.hot_ranks),
            ]
        )
    return table.render()


@dataclass(frozen=True)
class MappingAttribution:
    """One mapping's imbalance, linked to its strategy (Fig. 9)."""

    strategy: str
    n_ranks: int
    imbalance: float  # max/mean grid points per rank
    mean_points: float
    hot_ranks: Tuple[int, ...]
    mean_atoms: float  # relevant atoms per rank (locality proxy)
    max_atoms: int


def mapping_attribution(
    assignment: "BatchAssignment",
    batches: Sequence["GridBatch"],
    top_k: int = 3,
) -> MappingAttribution:
    """Attribute an assignment's imbalance to its mapping strategy.

    The per-rank relevant-atom counts are the paper's locality metric:
    the locality-enhancing mapping trades a few percent of point-count
    balance for far fewer atoms per rank (less replicated work, less
    communication).
    """
    points = assignment.points_per_rank(batches)
    atoms = [len(a) for a in assignment.atoms_per_rank(batches)]
    order = sorted(range(len(points)), key=lambda r: (-int(points[r]), r))
    return MappingAttribution(
        strategy=assignment.strategy,
        n_ranks=assignment.n_ranks,
        imbalance=assignment.imbalance(batches),
        mean_points=float(points.mean()),
        hot_ranks=tuple(order[:top_k]),
        mean_atoms=sum(atoms) / len(atoms) if atoms else 0.0,
        max_atoms=max(atoms, default=0),
    )


def render_mapping_attributions(
    rows: Sequence[MappingAttribution],
) -> str:
    """Fig.-9-style strategy comparison table."""
    from repro.utils.reports import TableFormatter

    table = TableFormatter(
        ["strategy", "ranks", "imbalance", "mean pts", "hot ranks",
         "mean atoms", "max atoms"],
        title="mapping attribution (points balance vs atom locality)",
    )
    for m in rows:
        table.add_row(
            [
                m.strategy,
                m.n_ranks,
                f"{m.imbalance:.3f}",
                f"{m.mean_points:.0f}",
                ",".join(str(r) for r in m.hot_ranks),
                f"{m.mean_atoms:.1f}",
                m.max_atoms,
            ]
        )
    return table.render()
