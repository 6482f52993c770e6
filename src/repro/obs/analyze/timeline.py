"""Timeline of one recorded run and its per-phase clock table (DESIGN §11.2).

A :class:`Timeline` is the normalized, analysis-ready view of one
recorded artifact, read by :func:`load_run`: the Chrome trace-event
JSON that ``repro physics --trace`` and ``repro serve --trace`` write
(one event per complete span, track id = rank), or a
:class:`~repro.obs.report.RunReport`, which degrades to a rank-0
sequence of its ``phase_seconds``.

:func:`clock_table` answers "where did this run's time go": per phase,
the calls, total, median call and share of wall, then the wall time no
span covers (``unattributed``) and the wall itself.  :func:`clock_diff`
joins two runs' tables by phase (``repro analyze diff``).

>>> tl = Timeline("demo", [TimelineEvent(0, "DM", 0.0, 1.0),
...                         TimelineEvent(0, "H", 1.0, 4.0)])
>>> [(r.name, r.calls, r.seconds) for r in clock_table(tl)]
[('H', 1, 3.0), ('DM', 1, 1.0), ('unattributed', 0, 0.0), ('wall', 0, 4.0)]
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import ExperimentError

_US = 1e-6  # trace-event microseconds -> seconds


@dataclass(frozen=True)
class TimelineEvent:
    """One track's occupation of one phase.

    >>> TimelineEvent(rank=1, phase="Sumup", start=0.5, end=2.0).duration
    1.5
    """

    rank: int
    phase: str
    start: float
    end: float
    category: str = "phase"

    @property
    def duration(self) -> float:
        """Elapsed seconds (never negative)."""
        return max(0.0, self.end - self.start)


@dataclass
class Timeline:
    """Normalized per-track/per-phase view of one recorded run."""

    label: str = "run"
    events: List[TimelineEvent] = field(default_factory=list)

    @property
    def tracks(self) -> List[int]:
        """The distinct track (rank) ids, sorted."""
        return sorted({e.rank for e in self.events})

    @property
    def wall_seconds(self) -> float:
        """End of the last event (timeline epoch is t=0)."""
        return max((e.end for e in self.events), default=0.0)

    def primary_categories(self) -> Tuple[str, ...]:
        """The category set busy-time accounting defaults to.

        Driver ``phase`` spans are sequential and non-overlapping;
        nested ``backend`` spans would double-count against them, so
        analysis prefers the outermost family when present.
        """
        present = {e.category for e in self.events}
        if "phase" in present:
            return ("phase",)
        return tuple(sorted(present))

    def _primary_events(self) -> List[TimelineEvent]:
        """The events of :meth:`primary_categories`."""
        cats = self.primary_categories()
        return [e for e in self.events if e.category in cats]

    def summary(self) -> str:
        """One deterministic header line for dashboards."""
        return (
            f"timeline [{self.label}]: {len(self.events)} events, "
            f"{len(self.tracks)} track(s), wall {self.wall_seconds:.6g}s"
        )


@dataclass(frozen=True)
class ClockRow:
    """One row of the clock table (``calls`` / ``p50`` are 0 on the
    ``unattributed`` and ``wall`` rows)."""

    name: str
    calls: int
    seconds: float
    p50: float = 0.0


def clock_table(timeline: Timeline) -> List[ClockRow]:
    """Per-phase calls, total and median call over the outermost span
    family (:meth:`Timeline.primary_categories`), largest total first
    (ties by name), then ``unattributed`` (wall − Σ phases) and ``wall``.
    """
    calls: Dict[str, List[float]] = {}
    for e in timeline._primary_events():
        calls.setdefault(e.phase, []).append(e.duration)
    rows = sorted(
        (ClockRow(name, len(d), sum(d), statistics.median(d))
         for name, d in calls.items()),
        key=lambda r: (-r.seconds, r.name),
    )
    wall = timeline.wall_seconds
    return rows + [
        ClockRow("unattributed", 0, wall - sum(r.seconds for r in rows)),
        ClockRow("wall", 0, wall),
    ]


def _signed(s: float, plus: str = "") -> str:
    """:func:`~repro.utils.reports.format_seconds` of a signed duration."""
    from repro.utils.reports import format_seconds

    return ("-" if s < 0 else plus if s > 0 else "") + format_seconds(abs(s))


def render_clock_table(rows: Sequence[ClockRow], label: str = "run") -> str:
    """Deterministic ASCII rendering of :func:`clock_table`."""
    from repro.utils.reports import TableFormatter

    wall = rows[-1].seconds
    table = TableFormatter(
        ["phase", "calls", "total", "p50", "share"],
        title=f"per-phase clock [{label}]",
    )
    for r in rows:
        share = r.seconds / wall * 100 if wall > 0 else 0.0
        table.add_row([r.name, r.calls or "", _signed(r.seconds),
                       _signed(r.p50) if r.calls else "", f"{share:.1f}%"])
    return table.render()


def clock_diff(base: Timeline, fresh: Timeline) -> List[Tuple[ClockRow, ClockRow]]:
    """Both runs' :func:`clock_table` rows joined by name.

    Phases in base order, then the phases only *fresh* ran, then
    ``unattributed`` and ``wall``; a phase one run lacks is a zero row
    there.

    >>> a = Timeline("a", [TimelineEvent(0, "H", 0.0, 1.0)])
    >>> b = Timeline("b", [TimelineEvent(0, "DM", 0.0, 2.0)])
    >>> [(x.name, x.seconds, y.seconds) for x, y in clock_diff(a, b)][:2]
    [('H', 1.0, 0.0), ('DM', 0.0, 2.0)]
    """
    tables = clock_table(base), clock_table(fresh)
    names = list(dict.fromkeys(r.name for t in tables for r in t[:-2]))
    names += ["unattributed", "wall"]
    by_name = [{r.name: r for r in t} for t in tables]
    return [tuple(rows.get(n, ClockRow(n, 0, 0.0)) for rows in by_name)
            for n in names]


def render_clock_diff(base: Timeline, fresh: Timeline) -> str:
    """Deterministic ASCII rendering of :func:`clock_diff`: calls, total
    and p50 of each run, and the change in total."""
    from repro.utils.reports import TableFormatter

    table = TableFormatter(
        ["phase", "base calls", "base total", "base p50",
         "fresh calls", "fresh total", "fresh p50", "change"],
        title=f"per-phase clock [{base.label} -> {fresh.label}]",
    )
    for a, b in clock_diff(base, fresh):
        cells = [a.name]
        for r in (a, b):
            cells += [r.calls or "", _signed(r.seconds),
                      _signed(r.p50) if r.calls else ""]
        table.add_row(cells + [_signed(b.seconds - a.seconds, plus="+")])
    return table.render()


def load_run(path: Union[str, Path]) -> Timeline:
    """Load one recorded artifact as a timeline, whatever its flavor.

    Chrome trace-event files (``traceEvents``) keep every complete
    (``ph: "X"``) event on its track;
    :class:`~repro.obs.report.RunReport` JSON degrades to a rank-0
    sequence of its ``phase_seconds``.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list):
        events = []
        for e in doc["traceEvents"]:
            if not isinstance(e, dict) or e.get("ph") != "X":
                continue
            start = float(e.get("ts", 0.0)) * _US
            events.append(TimelineEvent(
                rank=int(e.get("tid", 0)),
                phase=str(e.get("name", "?")),
                start=start,
                end=start + float(e.get("dur", 0.0)) * _US,
                category=str(e.get("cat", "phase")),
            ))
        return Timeline(label=path.stem, events=events)
    if isinstance(doc, dict) and "phase_seconds" in doc:
        events = []
        cursor = 0.0
        for phase, seconds in doc["phase_seconds"].items():
            events.append(
                TimelineEvent(
                    rank=0, phase=str(phase), start=cursor,
                    end=cursor + float(seconds),
                )
            )
            cursor += float(seconds)
        return Timeline(label=str(doc.get("label", path.stem)), events=events)
    raise ExperimentError(
        f"{path} is neither a Chrome trace nor a RunReport artifact"
    )
