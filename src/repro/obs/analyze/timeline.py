"""Timeline reconstruction and critical-path extraction (DESIGN §11.2).

A :class:`Timeline` is the normalized, analysis-ready view of one
recorded run.  Two artifact sources feed it:

* live :class:`~repro.obs.tracer.Span` lists from an active tracer
  (:meth:`Timeline.from_spans`);
* Chrome trace-event JSON written by :mod:`repro.obs.export`
  (:meth:`Timeline.from_chrome_trace` / :func:`load_run`).

Every event carries ``(rank, phase, start, end)`` plus the *segment* it
belongs to — one SCF or CPSCF cycle, reconstructed from the ambient
``loop``/``directions``/``cycle`` attributes the drivers push — and
injected faults survive as :class:`FaultMark` records, so post-mortem
attribution can point at them.

:func:`critical_path` answers the question the raw artifacts only
imply: which (rank, phase) chain bounds the wall time of each cycle.

>>> tl = Timeline("demo", [TimelineEvent(0, "DM", 0.0, 1.0),
...                         TimelineEvent(1, "DM", 0.0, 3.0)])
>>> cp = critical_path(tl)
>>> (cp.steps[0].phase, cp.steps[0].rank)
('DM', 1)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span

_US = 1e-6  # trace-event microseconds -> seconds


@dataclass(frozen=True)
class TimelineEvent:
    """One rank's occupation of one phase within one segment.

    >>> TimelineEvent(rank=1, phase="Sumup", start=0.5, end=2.0).duration
    1.5
    """

    rank: int
    phase: str
    start: float
    end: float
    segment: str = ""
    category: str = "phase"
    nbytes: int = 0
    scheme: str = ""

    @property
    def duration(self) -> float:
        """Elapsed seconds (never negative)."""
        return max(0.0, self.end - self.start)


@dataclass(frozen=True)
class FaultMark:
    """One injected fault as it appears in a recorded artifact."""

    kind: str
    rank: int = -1
    time: float = 0.0
    site: str = ""
    delay: float = 0.0
    segment: str = ""

    def describe(self) -> str:
        """One deterministic report line for dashboards/narratives."""
        where = f" on rank {self.rank}" if self.rank >= 0 else ""
        site = f" at {self.site}" if self.site else ""
        delay = f" (delay {self.delay:g}s)" if self.delay > 0 else ""
        return f"{self.kind}{where}{site}{delay}"


def _segment_of(attrs: Dict[str, object]) -> str:
    loop = attrs.get("loop")
    cycle = attrs.get("cycle")
    if loop == "cpscf":  # a block of directions renders as cpscf0+1+2
        directions = attrs.get("directions", [attrs.get("direction", "?")])
        loop = "cpscf" + "+".join(str(d) for d in directions)
    if loop is not None:
        return str(loop) if cycle is None else f"{loop}[{cycle}]"
    if cycle is not None:
        return f"cycle[{cycle}]"
    return ""


@dataclass
class Timeline:
    """Normalized per-rank/per-phase view of one recorded run."""

    label: str = "run"
    events: List[TimelineEvent] = field(default_factory=list)
    faults: List[FaultMark] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spans(
        cls,
        spans: Sequence["Span"],
        label: str = "run",
        categories: Optional[Sequence[str]] = None,
    ) -> "Timeline":
        """Build from live tracer spans.

        Duration spans become events (``categories`` filters them;
        ``None`` keeps every non-instant category); instant spans of
        category ``"fault"`` become :class:`FaultMark` records.
        """
        events: List[TimelineEvent] = []
        faults: List[FaultMark] = []
        for sp in spans:
            attrs = sp.attrs
            if sp.instant:
                if sp.category == "fault":
                    faults.append(
                        FaultMark(
                            kind=sp.name,
                            rank=int(attrs.get("rank", -1)),  # type: ignore[arg-type]
                            time=sp.start,
                            site=str(attrs.get("site", "")),
                            delay=float(attrs.get("delay", 0.0)),  # type: ignore[arg-type]
                            segment=_segment_of(attrs),
                        )
                    )
                continue
            if categories is not None and sp.category not in categories:
                continue
            events.append(
                TimelineEvent(
                    rank=int(attrs.get("rank", 0)),  # type: ignore[arg-type]
                    phase=sp.name,
                    start=sp.start,
                    end=sp.end,
                    segment=_segment_of(attrs),
                    category=sp.category,
                    nbytes=int(attrs.get("nbytes", 0)),  # type: ignore[arg-type]
                    scheme=str(attrs.get("scheme", "")),
                )
            )
        return cls(label=label, events=events, faults=faults)

    @classmethod
    def from_chrome_trace(
        cls,
        doc: Union[Dict[str, object], str, Path],
        label: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> "Timeline":
        """Build from a Chrome trace-event document (or its file path).

        ``ph:"X"`` events become timeline events (track id = rank),
        ``ph:"i"`` events of category ``fault`` become fault marks;
        ``pid`` restricts parsing to one process track family (``None``
        = every pid, the common single-family case).
        """
        if not isinstance(doc, dict):
            path = Path(doc)
            label = label or path.stem
            doc = json.loads(path.read_text())
        raw = doc.get("traceEvents")
        if not isinstance(raw, list):
            raise ExperimentError(
                "not a Chrome trace-event document (missing traceEvents)"
            )
        events: List[TimelineEvent] = []
        faults: List[FaultMark] = []
        for e in raw:
            if not isinstance(e, dict) or e.get("ph") == "M":
                continue
            if pid is not None and e.get("pid") != pid:
                continue
            args = e.get("args") or {}
            tid = int(e.get("tid", 0))  # type: ignore[arg-type]
            start = float(e.get("ts", 0.0)) * _US  # type: ignore[arg-type]
            if e.get("ph") == "i":
                if e.get("cat") == "fault":
                    faults.append(
                        FaultMark(
                            kind=str(e.get("name", "fault")),
                            rank=int(args.get("rank", tid)),
                            time=start,
                            site=str(args.get("site", "")),
                            delay=float(args.get("delay", 0.0)),
                            segment=_segment_of(args),
                        )
                    )
                continue
            if e.get("ph") != "X":
                continue
            end = start + float(e.get("dur", 0.0)) * _US  # type: ignore[arg-type]
            events.append(
                TimelineEvent(
                    rank=tid,
                    phase=str(e.get("name", "?")),
                    start=start,
                    end=end,
                    segment=_segment_of(args),
                    category=str(e.get("cat", "phase")),
                    nbytes=int(args.get("nbytes", 0)),
                    scheme=str(args.get("scheme", "")),
                )
            )
        return cls(label=label or "trace", events=events, faults=faults)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of rank tracks (max rank id + 1, at least 1)."""
        ranks = [e.rank for e in self.events] + [
            f.rank for f in self.faults if f.rank >= 0
        ]
        return max(ranks, default=0) + 1

    @property
    def wall_seconds(self) -> float:
        """End of the last event (timeline epoch is t=0)."""
        return max((e.end for e in self.events), default=0.0)

    def primary_categories(self) -> Tuple[str, ...]:
        """The category set busy-time accounting defaults to.

        Driver ``phase`` spans are sequential and non-overlapping;
        nested ``backend``/``comm`` spans would double-count against
        them, so analysis prefers the outermost family when present.
        """
        present = {e.category for e in self.events}
        if "phase" in present:
            return ("phase",)
        return tuple(sorted(present))

    def _selected(
        self, categories: Optional[Sequence[str]]
    ) -> List[TimelineEvent]:
        cats = tuple(categories) if categories is not None else self.primary_categories()
        return [e for e in self.events if e.category in cats]

    def busy_matrix(
        self, categories: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[int, float]]:
        """``phase -> rank -> busy seconds`` over the selected categories.

        Every phase row covers all ranks (missing ranks count 0.0), so
        imbalance over the matrix sees idle ranks.
        """
        out: Dict[str, Dict[int, float]] = {}
        n = self.n_ranks
        for e in self._selected(categories):
            row = out.setdefault(e.phase, {r: 0.0 for r in range(n)})
            row[e.rank] = row.get(e.rank, 0.0) + e.duration
        return out

    def phase_busy(
        self, categories: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """``phase -> summed busy seconds`` across all ranks."""
        return {
            phase: sum(row.values())
            for phase, row in self.busy_matrix(categories).items()
        }

    def segments(self) -> List[str]:
        """Segment labels (SCF/CPSCF cycles) ordered by first start."""
        first: Dict[str, float] = {}
        for e in self.events:
            if e.segment not in first or e.start < first[e.segment]:
                first[e.segment] = e.start
        return sorted(first, key=lambda s: (first[s], s))

    def summary(self) -> str:
        """One deterministic header line for dashboards."""
        return (
            f"timeline [{self.label}]: {len(self.events)} events, "
            f"{self.n_ranks} rank(s), {len(self.segments())} segment(s), "
            f"{len(self.faults)} fault(s), wall {self.wall_seconds:.6g}s"
        )


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalStep:
    """One link of the chain that bounds wall time."""

    segment: str
    phase: str
    rank: int
    seconds: float


@dataclass
class CriticalPath:
    """The per-segment (rank, phase) chain bounding the run's wall time."""

    steps: List[CriticalStep]
    wall_seconds: float
    faults: List[FaultMark] = field(default_factory=list)

    @property
    def bound_seconds(self) -> float:
        """Summed step durations — the modeled lower bound on wall time."""
        return sum(s.seconds for s in self.steps)

    def render(self, top: Optional[int] = None) -> str:
        """Deterministic ASCII table (one row per step, slowest first
        when ``top`` truncates)."""
        from repro.utils.reports import TableFormatter, format_seconds

        steps = self.steps
        if top is not None:
            steps = sorted(
                steps, key=lambda s: (-s.seconds, s.segment, s.phase, s.rank)
            )[:top]
        bound = self.bound_seconds
        table = TableFormatter(
            ["segment", "phase", "rank", "time", "share"],
            title="critical path (per-segment bounding rank+phase chain)",
        )
        for s in steps:
            share = s.seconds / bound * 100 if bound > 0 else 0.0
            table.add_row(
                [s.segment or "run", s.phase, s.rank,
                 format_seconds(s.seconds), f"{share:.1f}%"]
            )
        lines = [table.render(),
                 f"bound {format_seconds(bound)} of wall "
                 f"{format_seconds(self.wall_seconds)}"]
        for f in self.faults:
            lines.append(f"fault on path: {f.describe()}")
        return "\n".join(lines)


def critical_path(
    timeline: Timeline, categories: Optional[Sequence[str]] = None
) -> CriticalPath:
    """Extract the chain of (rank, phase) steps that bounds wall time.

    Within each segment (SCF/CPSCF cycle) phases execute in start
    order with a barrier between them, so the bounding chain takes, for
    every phase, the rank with the largest busy time (ties break to the
    lowest rank — deterministic).  Injected faults ride along so the
    attribution can name them.
    """
    events = timeline._selected(categories)
    # (segment, phase) -> rank -> busy; remember first-start ordering.
    busy: Dict[Tuple[str, str], Dict[int, float]] = {}
    first: Dict[Tuple[str, str], float] = {}
    for e in events:
        key = (e.segment, e.phase)
        busy.setdefault(key, {})
        busy[key][e.rank] = busy[key].get(e.rank, 0.0) + e.duration
        if key not in first or e.start < first[key]:
            first[key] = e.start
    steps: List[CriticalStep] = []
    for key in sorted(busy, key=lambda k: (first[k], k)):
        ranks = busy[key]
        # max busy time; ties resolved toward the lowest rank id.
        rank = min(r for r in ranks if ranks[r] == max(ranks.values()))
        steps.append(
            CriticalStep(
                segment=key[0], phase=key[1], rank=rank, seconds=ranks[rank]
            )
        )
    return CriticalPath(
        steps=steps,
        wall_seconds=timeline.wall_seconds,
        faults=list(timeline.faults),
    )


def load_run(path: Union[str, Path]) -> Timeline:
    """Load one recorded artifact as a timeline, whatever its flavor.

    Chrome trace-event files (``traceEvents``) keep full per-rank
    detail; :class:`~repro.obs.report.RunReport` JSON degrades
    gracefully to a rank-0 sequence of its ``phase_seconds``.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "traceEvents" in doc:
        return Timeline.from_chrome_trace(doc, label=path.stem)
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
