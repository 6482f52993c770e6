"""The statestore journal's three readers: rollups, health, fleet trace.

The journal of :mod:`repro.service.statestore` is the only record a
drain leaves — the one that workers claim from and ``repro status``
replays — so the service's operating signal is read from it directly,
in its own ``op`` / ``now`` / ``task_id`` vocabulary (DESIGN §12.8):

* :func:`rollup` — windowed SLO metrics behind ``repro slo --store``:
  queue wait and time to result with deterministic nearest-rank
  percentiles, throughput, failure / retry / lease-expiry rates per
  claim, queue pressure at each window's end, and per-phase seconds of
  completed payloads (their ``timings`` subtree, the one wall-clock
  input);
* :func:`health_from_store` — the per-worker live / idle / degraded /
  stuck table of ``repro status``;
* :func:`worker_spans` — one span per claim on one track per worker,
  which ``repro serve --trace`` hands to
  :func:`repro.obs.export.write_chrome_trace`.

This module and the store are the only two that know the journal's
format.  A cache hit or a dedup never reaches the journal (the store's
fast path), and an injected worker crash is silence until its lease
expires, so those are not counted here.

>>> events = [{"op": "submit", "now": 0.0, "task_id": "t1"},
...           {"op": "claim", "now": 1.0, "task_id": "t1", "worker": "w0"},
...           {"op": "complete", "now": 3.0, "task_id": "t1", "worker": "w0"}]
>>> (w,) = rollup(events, window=4.0)
>>> w.counts["completed"], w.queue_wait, w.time_to_result
(1, [1.0], [3.0])
>>> w.metric("queue_wait_p50")
1.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.obs.tracer import Span
from repro.utils.journal import read_json_lines

#: Count keys every window carries (zero counts included, so every
#: window has the same shape).
COUNT_KEYS = (
    "claimed",
    "completed",
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

#: Rates per claim: metric name -> the count it divides.
_PER_CLAIM = {
    "failure_rate": "failed",
    "retry_rate": "requeued",
    "expiry_rate": "lease_expiries",
}


def journal_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a statestore journal without owning it.

    A torn final line (a live ``repro serve`` mid-append) is skipped,
    never truncated; a missing journal or a corrupt line elsewhere is a
    :class:`~repro.errors.ServiceError` naming the path.
    """
    if not Path(path).is_file():
        raise ServiceError(
            f"no statestore journal at {path}; submit and drain jobs with "
            "`repro submit` / `repro serve` first"
        )
    lines, _ = read_json_lines(path, what="statestore journal", error=ServiceError)
    return [event for _, event in lines]


def percentile(samples: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0.0 for an empty sample set).

    The ``ceil(q/100 * n)``-th smallest value, so the result is always an
    observed sample and two runs over the same multiset agree bit for
    bit (no interpolation).

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
    """SLO metrics for one window ``[start, end)`` of the journal's clock."""

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

    def metric(self, name: str) -> float:
        """Resolve one named metric.

        Count keys resolve directly; derived names are ``throughput``
        (completions per second), ``failure_rate`` / ``retry_rate`` /
        ``expiry_rate`` (per claim) and the latency percentiles
        ``queue_wait_p50/p90/p99`` and ``ttr_p50/p90/p99``.
        """
        if name in self.counts:
            return float(self.counts[name])
        if name == "throughput":
            width = self.end - self.start
            return self.counts["completed"] / width if width else 0.0
        if name in _PER_CLAIM:
            claims = self.counts["claimed"]
            return self.counts[_PER_CLAIM[name]] / claims if claims else 0.0
        for prefix, samples in (
            ("queue_wait", self.queue_wait),
            ("ttr", self.time_to_result),
        ):
            for q in PERCENTILES:
                if name == f"{prefix}_p{q}":
                    return percentile(samples, q)
        raise KeyError(f"unknown SLO metric {name!r}")


def _waiting_intervals(
    events: Sequence[Dict[str, Any]],
) -> List[Tuple[float, float]]:
    """Each task's ``[entered-waiting, left-waiting)`` intervals."""
    entered: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    for ev in events:
        op, task, t = ev["op"], ev.get("task_id"), float(ev["now"])
        requeued = op == "requeue" and not ev.get("terminal", False)
        if op in ("submit", "resubmit") or requeued:
            entered[task] = t
        elif op in ("claim", "requeue") and task in entered:
            intervals.append((entered.pop(task), t))
    intervals.extend((t0, math.inf) for t0 in entered.values())
    return sorted(intervals)


def _queue_snapshot(
    intervals: Sequence[Tuple[float, float]], at: float
) -> Tuple[int, float]:
    """(tasks waiting, oldest waiting age) at instant *at*."""
    waiting = [t0 for (t0, t1) in intervals if t0 <= at < t1]
    if not waiting:
        return 0, 0.0
    return len(waiting), at - min(waiting)


def rollup(
    events: Sequence[Dict[str, Any]], window: float, *, t0: float = 0.0
) -> List[WindowRollup]:
    """Fold journal events into contiguous windows ``[t0 + k*window, ...)``.

    An event at an exact boundary belongs to the window it *starts*
    (floor semantics), so every event lands in exactly one window.
    Latency samples are attributed to the window of the *resolving*
    event (the claim for a queue wait, the completion for a time to
    result) even when the submission happened windows earlier.  Lines
    without a timestamp and events before ``t0`` are ignored.
    """
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    live = [ev for ev in events if ev.get("now") is not None and ev["now"] >= t0]
    n_windows = 1
    for ev in live:
        n_windows = max(n_windows, int((float(ev["now"]) - t0) // window) + 1)
    windows = [
        WindowRollup(index=k, start=t0 + k * window, end=t0 + (k + 1) * window)
        for k in range(n_windows)
    ]

    entered: Dict[str, float] = {}
    submitted_at: Dict[str, float] = {}
    for ev in live:
        t = float(ev["now"])
        w = windows[int((t - t0) // window)]
        op, task = ev["op"], ev.get("task_id")
        if op in ("submit", "resubmit"):
            w.counts["submitted" if op == "submit" else "resubmitted"] += 1
            entered[task] = submitted_at[task] = t
        elif op == "claim":
            w.counts["claimed"] += 1
            if task in entered:
                w.queue_wait.append(t - entered.pop(task))
        elif op == "start":
            w.counts["started"] += 1
        elif op == "heartbeat":
            w.counts["heartbeats"] += 1
        elif op == "complete":
            w.counts["completed"] += 1
            if task in submitted_at:
                w.time_to_result.append(t - submitted_at.pop(task))
            result = ev.get("result")
            timings = result.get("timings") if isinstance(result, dict) else None
            for phase, seconds in ((timings or {}).get("phase_seconds") or {}).items():
                w.phase_seconds[phase] = w.phase_seconds.get(phase, 0.0) + float(seconds)
        elif op == "requeue":
            w.counts["lease_expiries" if ev.get("expired") else "failed"] += 1
            if ev.get("terminal", False):
                w.counts["errored"] += 1
                entered.pop(task, None)
            else:
                w.counts["requeued"] += 1
                entered[task] = t

    intervals = _waiting_intervals(live)
    for w in windows:
        w.waiting_at_end, w.oldest_waiting_age = _queue_snapshot(intervals, w.end)
        w.queue_wait.sort()
        w.time_to_result.sort()
    return windows


def window_origin(events: Sequence[Dict[str, Any]], window: float) -> float:
    """A window-aligned ``t0`` at or below the first timestamped event.

    Logical-clock journals start at 0, but ``repro serve`` stamps epoch
    seconds — windowing those from ``t0 = 0`` would enumerate fifty
    years of empty windows.  Alignment to a window multiple keeps
    boundary invariance: re-rolling the same journal yields the same
    windows.

    >>> window_origin([{"now": 11.0}, {"now": 17.0}, {"op": "note"}], 4.0)
    8.0
    >>> window_origin([], 4.0)
    0.0
    """
    ts = [float(ev["now"]) for ev in events if ev.get("now") is not None]
    if not ts:
        return 0.0
    return math.floor(min(ts) / window) * window


def render_windows(windows: Sequence[WindowRollup]) -> str:
    """One table row per rollup window (the ``repro slo`` dashboard)."""
    from repro.utils.reports import TableFormatter

    table = TableFormatter(
        [
            "window",
            "span",
            "claims",
            "done",
            "expiry%",
            "qwait p50/p99",
            "ttr p50/p99",
            "oldest wait",
        ],
        title="SLO rollup",
    )
    for w in windows:
        table.add_row(
            [
                f"w{w.index}",
                f"[{w.start:g},{w.end:g})",
                w.counts["claimed"],
                w.counts["completed"],
                f"{100.0 * w.metric('expiry_rate'):.0f}",
                f"{w.metric('queue_wait_p50'):g}/{w.metric('queue_wait_p99'):g}",
                f"{w.metric('ttr_p50'):g}/{w.metric('ttr_p99'):g}",
                f"{w.oldest_waiting_age:g}s",
            ]
        )
    return table.render()


# ----------------------------------------------------------------------
# Worker health (the `repro status` table)
# ----------------------------------------------------------------------
#: Heartbeat age beyond this many leases marks a task-holding worker
#: as stuck (between 1 and this factor it is merely degraded).
STUCK_LEASE_FACTOR = 2.0


def classify_heartbeat_age(
    age: float, lease_seconds: float, *, holds_live_task: bool = True
) -> str:
    """The health state for one worker's heartbeat *age*.

    Silence past one lease would already have had the worker's tasks
    requeued by :meth:`~repro.service.statestore.StateStore.expire_leases`,
    so it is *degraded*, and past :data:`STUCK_LEASE_FACTOR` leases
    *stuck*.  A worker holding no live task is *idle* however old its
    last contact.

    >>> classify_heartbeat_age(0.5, lease_seconds=2.0)
    'live'
    >>> classify_heartbeat_age(3.0, lease_seconds=2.0)
    'degraded'
    >>> classify_heartbeat_age(5.0, lease_seconds=2.0)
    'stuck'
    >>> classify_heartbeat_age(99.0, lease_seconds=2.0, holds_live_task=False)
    'idle'
    """
    if not holds_live_task:
        return "idle"
    if age <= lease_seconds:
        return "live"
    if age <= STUCK_LEASE_FACTOR * lease_seconds:
        return "degraded"
    return "stuck"


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's health verdict at a given instant."""

    worker: str
    last_heartbeat: float
    age: float
    state: str
    live_tasks: int


def worker_health(
    heartbeats: Dict[str, float],
    live_tasks: Dict[str, int],
    now: float,
    lease_seconds: float,
) -> List[WorkerHealth]:
    """Classify every known worker, sorted by worker id.

    ``heartbeats`` maps worker id to the time of its last store contact;
    ``live_tasks`` to the number of claimed/running tasks it holds
    (absent means 0).

    >>> rows = worker_health({"w0": 4.0, "w1": 1.0}, {"w1": 1}, 6.0, 2.0)
    >>> [(r.worker, r.state) for r in rows]
    [('w0', 'idle'), ('w1', 'stuck')]
    """
    out: List[WorkerHealth] = []
    for worker in sorted(heartbeats):
        last = float(heartbeats[worker])
        age = max(0.0, float(now) - last)
        holding = int(live_tasks.get(worker, 0))
        state = classify_heartbeat_age(age, lease_seconds, holds_live_task=holding > 0)
        out.append(WorkerHealth(worker, last, age, state, holding))
    return out


def health_from_store(store, now: float) -> List[WorkerHealth]:
    """Health rows for every worker a :class:`StateStore` has heard from."""
    live: Dict[str, int] = {}
    for task in store.tasks():
        if task.live and task.worker is not None:
            live[task.worker] = live.get(task.worker, 0) + 1
    return worker_health(store.worker_heartbeats(), live, now, store.lease_seconds)


# ----------------------------------------------------------------------
# The fleet trace (`repro serve --trace`)
# ----------------------------------------------------------------------
def worker_spans(events: Sequence[Dict[str, Any]]) -> List[Span]:
    """One :class:`~repro.obs.tracer.Span` per claim, one track per worker.

    A span runs from the claim to the ``complete`` or ``requeue`` that
    returned the task, with outcome ``completed``, ``failed``,
    ``expired`` (the lease ran out: a crashed worker) or ``errored``
    (the retry budget is spent).  Worker ``w`` gets track ``rank`` =
    its sorted position + 1, named ``worker w``.  A claim the events do
    not close draws nothing.  Times are seconds since the first event
    given, so a drain's trace starts at 0 whatever its clock's origin.

    >>> (sp,) = worker_spans([
    ...     {"op": "claim", "now": 1.0, "task_id": "t-1", "worker": "w0"},
    ...     {"op": "complete", "now": 3.0, "task_id": "t-1", "worker": "w0"},
    ... ])
    >>> sp.name, sp.start, sp.end, sp.attrs["outcome"], sp.attrs["track"]
    ('t-1', 0.0, 2.0, 'completed', 'worker w0')
    """
    t0 = float(events[0]["now"]) if events else 0.0
    workers = sorted({ev["worker"] for ev in events if ev["op"] == "claim"})
    tids = {w: i + 1 for i, w in enumerate(workers)}
    open_claims: Dict[str, Tuple[str, float]] = {}
    spans: List[Span] = []
    for ev in events:
        op, task = ev["op"], ev.get("task_id")
        if op == "claim":
            open_claims[task] = (ev["worker"], float(ev["now"]) - t0)
        elif op in ("complete", "requeue") and task in open_claims:
            worker, start = open_claims.pop(task)
            if op == "complete":
                outcome = "completed"
            elif ev.get("terminal"):
                outcome = "errored"
            else:
                outcome = "expired" if ev.get("expired") else "failed"
            spans.append(Span(
                name=str(task), category="service", start=start,
                end=float(ev["now"]) - t0,
                attrs={"rank": tids[worker], "track": f"worker {worker}",
                       "worker": worker, "outcome": outcome},
            ))
    return spans
