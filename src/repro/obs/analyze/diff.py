"""A/B run attribution: explain *where* a regression lives (DESIGN §11.5).

Given two recorded runs — a trusted base and a fresh candidate —
:func:`diff_timelines` decomposes the wall-time delta per (phase, rank)
and ranks the contributions, and :meth:`RunDiff.narrative` turns that
into the deterministic "explain the regression" report the perf gate
links to: the top entries name the perturbed phase and rank, and
``obs.regress`` offenders can be folded in.

>>> from repro.obs.analyze.timeline import Timeline, TimelineEvent
>>> base = Timeline("base", [TimelineEvent(0, "H", 0.0, 1.0),
...                          TimelineEvent(1, "H", 0.0, 1.0)])
>>> fresh = Timeline("fresh", [TimelineEvent(0, "H", 0.0, 1.0),
...                            TimelineEvent(1, "H", 0.0, 3.0)])
>>> d = diff_timelines(base, fresh)
>>> (d.contributions[0].phase, d.contributions[0].rank)
('H', 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.analyze.timeline import Timeline


@dataclass(frozen=True)
class Contribution:
    """One (phase, rank) cell's share of the wall-time delta."""

    phase: str
    rank: int
    base_seconds: float
    fresh_seconds: float

    @property
    def delta(self) -> float:
        """Busy-time change, positive = the fresh run got slower here."""
        return self.fresh_seconds - self.base_seconds


@dataclass
class RunDiff:
    """Decomposed wall-time delta between two recorded runs."""

    base_label: str
    fresh_label: str
    base_wall: float
    fresh_wall: float
    contributions: List[Contribution] = field(default_factory=list)

    @property
    def wall_delta(self) -> float:
        """Wall-time change, positive = fresh is slower."""
        return self.fresh_wall - self.base_wall

    def top(self, k: int = 5) -> List[Contribution]:
        """The k largest slowdown contributions."""
        return self.contributions[:k]

    def narrative(
        self,
        top_k: int = 5,
        offenders: Optional[Sequence[object]] = None,
    ) -> str:
        """The deterministic "explain the regression" report.

        ``offenders`` (e.g. :class:`~repro.obs.regress.MetricDelta`
        rows from a failed gate) are appended so the trace-level and
        metric-level views of one regression read as a single story.
        """
        from repro.utils.reports import format_seconds

        direction = "slower" if self.wall_delta > 0 else "faster"
        lines = [
            f"diff [{self.base_label} -> {self.fresh_label}]: wall "
            f"{format_seconds(self.base_wall)} -> "
            f"{format_seconds(self.fresh_wall)} "
            f"({abs(self.wall_delta):.6g}s {direction})"
        ]
        positive = sum(c.delta for c in self.contributions if c.delta > 0)
        shown = [c for c in self.top(top_k) if c.delta != 0.0]
        if not shown:
            lines.append("no per-phase busy-time change detected")
        for i, c in enumerate(shown, 1):
            share = (
                f" ({c.delta / positive * 100:.1f}% of total slowdown)"
                if positive > 0 and c.delta > 0
                else ""
            )
            lines.append(
                f"{i}. phase {c.phase} on rank {c.rank}: "
                f"{format_seconds(c.base_seconds)} -> "
                f"{format_seconds(c.fresh_seconds)} "
                f"({c.delta:+.6g}s){share}"
            )
        for d in offenders or ():
            lines.append(f"gate offender: {d.describe()}")  # type: ignore[attr-defined]
        return "\n".join(lines)


def diff_timelines(base: Timeline, fresh: Timeline) -> RunDiff:
    """Decompose the wall-time delta of two runs per (phase, rank).

    Contributions are ranked largest-slowdown-first; ties break on
    (phase, rank) so repeated invocations emit identical bytes.
    """
    cells: Dict[Tuple[str, int], List[float]] = {}
    for which, tl in enumerate((base, fresh)):
        for phase, row in tl.busy_matrix().items():
            for rank, seconds in row.items():
                cell = cells.setdefault((phase, rank), [0.0, 0.0])
                cell[which] += seconds
    contributions = [
        Contribution(phase=k[0], rank=k[1], base_seconds=v[0], fresh_seconds=v[1])
        for k, v in cells.items()
    ]
    contributions.sort(key=lambda c: (-c.delta, c.phase, c.rank))
    return RunDiff(
        base_label=base.label,
        fresh_label=fresh.label,
        base_wall=base.wall_seconds,
        fresh_wall=fresh.wall_seconds,
        contributions=contributions,
    )
