"""Windowed SLO rollups on the logical clock (DESIGN §16.2).

The aggregator folds one ordered telemetry event stream (see
:mod:`repro.obs.telemetry.events`) into fixed-width windows of the
logical clock and computes, per window:

* **latency distributions** — queue wait (waiting → claimed) and time
  to result (submitted → complete), with deterministic nearest-rank
  percentiles;
* **throughput** — completed tasks per logical second;
* **rates** — cache-hit ratio over all submit lookups, retry/requeue,
  failure and crash rates per claim, lease expiries;
* **queue pressure** — tasks still waiting at the window's end and the
  oldest waiting task's age at that instant;
* **work attribution** — per-phase seconds summed over completed
  payloads, quarantined under ``timings`` (DESIGN §11.7) because phase
  walls are the one wall-clock-dependent input.

Everything outside ``timings`` depends only on the event stream, so two
identical logical-clock runs roll up byte-identically — the property
``make slo-check`` gates.  The window algebra is closed under merging:
``merge(w[2k], w[2k+1])`` equals the corresponding window of a rollup
at twice the width (pinned by hypothesis tests).

>>> events = [{"kind": "submit", "t": 0.0, "task": "t1"},
...           {"kind": "claim", "t": 1.0, "task": "t1", "worker": "w0"},
...           {"kind": "complete", "t": 3.0, "task": "t1", "worker": "w0"}]
>>> (w,) = rollup(events, window=4.0)
>>> w.counts["completed"], w.queue_wait, w.time_to_result
(1, [1.0], [3.0])
>>> w.metric("queue_wait_p50")
1.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Count keys every window carries (sorted; zero counts included so the
#: rollup document shape is stable across runs).
COUNT_KEYS = (
    "alerts",
    "cache_hits",
    "cancelled",
    "claimed",
    "completed",
    "crashes",
    "dedups",
    "errored",
    "failed",
    "heartbeats",
    "lease_expiries",
    "requeued",
    "resubmitted",
    "started",
    "submitted",
)

#: The percentiles every latency distribution reports.
PERCENTILES = (50, 90, 99)


def percentile(samples: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0.0 for an empty sample set).

    Uses the classical nearest-rank definition — the ``ceil(q/100 * n)``-th
    smallest value — so the result is always an observed sample and two
    runs over the same multiset agree bit for bit (no interpolation).

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> percentile([4.0, 1.0, 3.0, 2.0], 99)
    4.0
    >>> percentile([], 50)
    0.0
    """
    if not samples:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(float(v) for v in samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class WindowRollup:
    """SLO metrics for one window ``[start, end)`` of the logical clock."""

    index: int
    start: float
    end: float
    counts: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in COUNT_KEYS}
    )
    queue_wait: List[float] = field(default_factory=list)
    time_to_result: List[float] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    waiting_at_end: int = 0
    oldest_waiting_age: float = 0.0

    @property
    def width(self) -> float:
        """The window's logical duration."""
        return self.end - self.start

    def metric(self, name: str) -> float:
        """Resolve one named SLO metric (the alert rules' vocabulary).

        Count keys resolve directly; derived names are ``throughput``,
        ``crash_rate`` / ``failure_rate`` / ``retry_rate`` (per claim),
        ``cache_hit_ratio`` / ``cache_lookups`` (per submit lookup),
        ``waiting_at_end``,
        ``oldest_waiting_age`` and the latency summaries
        ``queue_wait_p50/p90/p99/max/mean`` and ``ttr_p50/p90/p99/max/mean``.
        """
        if name in self.counts:
            return float(self.counts[name])
        if name == "throughput":
            return self.counts["completed"] / self.width if self.width else 0.0
        claims = self.counts["claimed"]
        if name == "crash_rate":
            return self.counts["crashes"] / claims if claims else 0.0
        if name == "failure_rate":
            return self.counts["failed"] / claims if claims else 0.0
        if name == "retry_rate":
            return self.counts["requeued"] / claims if claims else 0.0
        if name in ("cache_hit_ratio", "cache_lookups"):
            lookups = (
                self.counts["submitted"]
                + self.counts["resubmitted"]
                + self.counts["cache_hits"]
                + self.counts["dedups"]
            )
            if name == "cache_lookups":
                return float(lookups)
            return self.counts["cache_hits"] / lookups if lookups else 0.0
        if name == "waiting_at_end":
            return float(self.waiting_at_end)
        if name == "oldest_waiting_age":
            return self.oldest_waiting_age
        for prefix, samples in (
            ("queue_wait", self.queue_wait),
            ("ttr", self.time_to_result),
        ):
            if name == f"{prefix}_max":
                return max(samples) if samples else 0.0
            if name == f"{prefix}_mean":
                return sum(samples) / len(samples) if samples else 0.0
            for q in PERCENTILES:
                if name == f"{prefix}_p{q}":
                    return percentile(samples, q)
        raise KeyError(f"unknown SLO metric {name!r}")

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form; phase walls quarantined under ``timings``."""
        doc: Dict[str, Any] = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "queue_wait": {
                "samples": sorted(self.queue_wait),
                **{f"p{q}": percentile(self.queue_wait, q) for q in PERCENTILES},
            },
            "time_to_result": {
                "samples": sorted(self.time_to_result),
                **{
                    f"p{q}": percentile(self.time_to_result, q)
                    for q in PERCENTILES
                },
            },
            "throughput": self.metric("throughput"),
            "crash_rate": self.metric("crash_rate"),
            "failure_rate": self.metric("failure_rate"),
            "retry_rate": self.metric("retry_rate"),
            "cache_hit_ratio": self.metric("cache_hit_ratio"),
            "waiting_at_end": self.waiting_at_end,
            "oldest_waiting_age": self.oldest_waiting_age,
        }
        if self.phase_seconds:
            doc["timings"] = {
                "phase_seconds": {
                    k: self.phase_seconds[k] for k in sorted(self.phase_seconds)
                }
            }
        return doc


def merge(a: WindowRollup, b: WindowRollup) -> WindowRollup:
    """Fold two adjacent windows into one twice-as-wide window.

    Counts and latency samples are unions; the end-of-window queue
    snapshot (``waiting_at_end`` / ``oldest_waiting_age``) comes from
    whichever window ends later — exactly what a rollup at the doubled
    width would have observed.  ``merge(w[2k], w[2k+1])`` over a
    width-``w`` rollup therefore equals window ``k`` of the width-``2w``
    rollup (the hypothesis-pinned algebra).
    """
    first, second = (a, b) if a.end <= b.end else (b, a)
    out = WindowRollup(
        index=0,
        start=min(a.start, b.start),
        end=max(a.end, b.end),
        counts={
            k: a.counts.get(k, 0) + b.counts.get(k, 0)
            for k in sorted(set(a.counts) | set(b.counts))
        },
        queue_wait=sorted(a.queue_wait + b.queue_wait),
        time_to_result=sorted(a.time_to_result + b.time_to_result),
        waiting_at_end=second.waiting_at_end,
        oldest_waiting_age=second.oldest_waiting_age,
    )
    for src in (a, b):
        for phase, seconds in src.phase_seconds.items():
            out.phase_seconds[phase] = out.phase_seconds.get(phase, 0.0) + seconds
    width = out.end - out.start
    out.index = int(out.start // width) if width > 0 else 0
    return out


def _waiting_intervals(
    events: Sequence[Dict[str, Any]],
) -> List[Tuple[float, float]]:
    """Each task's ``[entered-waiting, left-waiting)`` intervals."""
    entered: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    for ev in events:
        kind, task = ev.get("kind"), ev.get("task")
        t = float(ev.get("t", 0.0))
        if kind in ("submit", "resubmit"):
            entered[task] = t
        elif kind == "requeue" and not ev.get("terminal", False):
            entered[task] = t
        elif kind in ("claim", "cancel") or (
            kind == "requeue" and ev.get("terminal", False)
        ):
            if task in entered:
                intervals.append((entered.pop(task), t))
    intervals.extend((t0, math.inf) for t0 in entered.values())
    return sorted(intervals)


def _queue_snapshot(
    intervals: Sequence[Tuple[float, float]], at: float
) -> Tuple[int, float]:
    """(tasks waiting, oldest waiting age) at logical instant *at*."""
    waiting = [t0 for (t0, t1) in intervals if t0 <= at < t1]
    if not waiting:
        return 0, 0.0
    return len(waiting), at - min(waiting)


def rollup(
    events: Sequence[Dict[str, Any]],
    window: float,
    *,
    t0: float = 0.0,
    horizon: Optional[float] = None,
) -> List[WindowRollup]:
    """Fold one telemetry event stream into contiguous windows.

    Windows are ``[t0 + k*window, t0 + (k+1)*window)``; an event at an
    exact boundary belongs to the window it *starts* (floor semantics),
    so every event lands in exactly one window.  Latency samples are
    attributed to the window of the *resolving* event (the claim for a
    queue wait, the completion for a time to result) even when the
    submission happened windows earlier.  ``horizon`` forces coverage
    through a later end time (empty trailing windows included) so
    hysteresis evaluation sees quiet periods.

    Events with ``t < t0`` (e.g. the provenance header at ``t = -1``)
    are ignored.
    """
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    live = [ev for ev in events if float(ev.get("t", 0.0)) >= t0]
    n_windows = 1
    for ev in live:
        n_windows = max(n_windows, int((float(ev["t"]) - t0) // window) + 1)
    if horizon is not None and horizon > t0:
        n_windows = max(n_windows, int(math.ceil((horizon - t0) / window)))
    windows = [
        WindowRollup(index=k, start=t0 + k * window, end=t0 + (k + 1) * window)
        for k in range(n_windows)
    ]

    entered: Dict[str, float] = {}
    submitted_at: Dict[str, float] = {}
    for ev in live:
        t = float(ev["t"])
        w = windows[int((t - t0) // window)]
        kind, task = ev.get("kind"), ev.get("task")
        if kind == "submit":
            w.counts["submitted"] += 1
            entered[task] = t
            submitted_at[task] = t
        elif kind == "resubmit":
            w.counts["resubmitted"] += 1
            entered[task] = t
            submitted_at[task] = t
        elif kind == "claim":
            w.counts["claimed"] += 1
            if task in entered:
                w.queue_wait.append(t - entered.pop(task))
        elif kind == "start":
            w.counts["started"] += 1
        elif kind == "heartbeat":
            w.counts["heartbeats"] += 1
        elif kind == "complete":
            w.counts["completed"] += 1
            if task in submitted_at:
                w.time_to_result.append(t - submitted_at.pop(task))
        elif kind == "requeue":
            if not ev.get("expired", False):
                w.counts["failed"] += 1
            if ev.get("terminal", False):
                w.counts["errored"] += 1
                entered.pop(task, None)
            else:
                w.counts["requeued"] += 1
                entered[task] = t
        elif kind == "cancel":
            w.counts["cancelled"] += 1
            entered.pop(task, None)
        elif kind == "cache_hit":
            w.counts["cache_hits"] += 1
        elif kind == "dedup":
            w.counts["dedups"] += 1
        elif kind == "lease_expiry":
            w.counts["lease_expiries"] += 1
        elif kind == "worker_crash":
            w.counts["crashes"] += 1
        elif kind == "alert":
            w.counts["alerts"] += 1
        elif kind == "phase_work":
            for phase, seconds in (ev.get("phases") or {}).items():
                w.phase_seconds[phase] = (
                    w.phase_seconds.get(phase, 0.0) + float(seconds)
                )

    intervals = _waiting_intervals(live)
    for w in windows:
        w.waiting_at_end, w.oldest_waiting_age = _queue_snapshot(
            intervals, w.end
        )
        w.queue_wait.sort()
        w.time_to_result.sort()
    return windows


def window_origin(events: Sequence[Dict[str, Any]], window: float) -> float:
    """A window-aligned ``t0`` at or below the first event.

    Logical-clock streams start at 0 and need no origin, but wall-clock
    journals are stamped with epoch seconds — windowing those from
    ``t0 = 0`` would enumerate fifty years of empty windows.  Alignment
    to a window multiple keeps boundary invariance: re-rolling the same
    journal always yields the same windows.

    >>> window_origin([{"t": 11.0}, {"t": 17.0}], 4.0)
    8.0
    >>> window_origin([], 4.0)
    0.0
    """
    ts = [
        float(ev.get("t", 0.0))
        for ev in events
        if float(ev.get("t", 0.0)) >= 0.0
    ]
    if not ts:
        return 0.0
    return math.floor(min(ts) / window) * window


def overall(
    events: Sequence[Dict[str, Any]],
    *,
    t0: float = 0.0,
    horizon: Optional[float] = None,
) -> WindowRollup:
    """One rollup spanning the whole event stream (a single giant window).

    >>> overall([{"kind": "submit", "t": 0.0, "task": "a"}]).counts["submitted"]
    1
    """
    end = t0 + 1.0
    for ev in events:
        end = max(end, float(ev.get("t", 0.0)) + 1.0)
    if horizon is not None:
        end = max(end, horizon)
    (w,) = rollup(events, window=end - t0, t0=t0, horizon=end)
    return w
