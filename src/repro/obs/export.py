"""Chrome trace-event (Perfetto-loadable) export (DESIGN §10.4).

Two sources feed one ``traceEvents`` JSON file:

* real :class:`~repro.obs.tracer.Span` records from a measured physics
  run (track = the span's ``rank`` attribute, default rank 0);
* the fleet-level service telemetry journal (one track per worker plus
  the queue), so a served job opens in the same UI as a measured run.

Timestamps are microseconds (the trace-event format's unit), strictly
non-negative, and non-decreasing in emission order within each track.
Open the output at https://ui.perfetto.dev or ``chrome://tracing``.

>>> from repro.obs.tracer import Tracer
>>> t = Tracer()
>>> with t.span("Sumup", rank=0):
...     pass
>>> doc = chrome_trace(t.spans)
>>> doc["traceEvents"][-1]["ph"]
'X'
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span

#: Process ids used for the track families.
MEASURED_PID = 0
#: Fleet-level service telemetry tracks (one per worker + the queue).
SERVICE_PID = 2

_US = 1e6  # seconds -> microseconds


def _meta(pid: int, tid: int, name: str) -> Dict[str, object]:
    return {
        "ph": "M",
        "name": "thread_name",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _clean_args(attrs: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in attrs.items() if isinstance(v, (str, int, float, bool))}


def span_events(
    spans: Sequence["Span"], pid: int = MEASURED_PID
) -> List[Dict[str, object]]:
    """Trace events for measured spans (one track per ``rank`` attribute).

    Duration spans become complete (``ph="X"``) events; instant spans
    (injected faults, degradations) become instant (``ph="i"``) events.
    """
    events: List[Dict[str, object]] = []
    seen_tids: Dict[int, str] = {}
    for sp in spans:
        tid = int(sp.attrs.get("rank", 0))  # type: ignore[arg-type]
        seen_tids.setdefault(tid, f"rank {tid}")
        base = {
            "name": sp.name,
            "cat": sp.category,
            "pid": pid,
            "tid": tid,
            "ts": max(0.0, sp.start) * _US,
            "args": _clean_args(sp.attrs),
        }
        if sp.instant:
            base.update({"ph": "i", "s": "t"})
        else:
            base.update({"ph": "X", "dur": sp.duration * _US})
        events.append(base)
    metas = [_meta(pid, tid, name) for tid, name in sorted(seen_tids.items())]
    return metas + sorted(events, key=lambda e: (e["tid"], e["ts"]))


#: Queue-level telemetry instants shown on the service ``queue`` track.
_QUEUE_INSTANTS = ("submit", "resubmit", "cache_hit", "dedup", "alert")


def service_track_events(
    telemetry_events: Sequence[Dict[str, object]], pid: int = SERVICE_PID
) -> List[Dict[str, object]]:
    """Fleet-level tracks from one service telemetry event stream.

    Each worker gets its own track: a complete (``ph="X"``) event per
    claim, spanning claim → complete / fail / crash, plus instant
    markers for crashes and lease expiries.  Queue-level instants
    (submits, cache hits, dedups, alert transitions) share a ``queue``
    track at tid 0.  Input is the event-dict stream of a
    :class:`~repro.obs.telemetry.events.TelemetrySink` (or
    :func:`~repro.obs.telemetry.events.load_events`); logical seconds
    map to trace microseconds.

    >>> evs = service_track_events([
    ...     {"kind": "claim", "t": 1.0, "task": "t-1", "worker": "w0"},
    ...     {"kind": "complete", "t": 3.0, "task": "t-1", "worker": "w0"},
    ... ])
    >>> [(e["ph"], e.get("dur")) for e in evs if e["ph"] == "X"]
    [('X', 2000000.0)]
    """
    workers = sorted(
        {
            str(ev["worker"])
            for ev in telemetry_events
            if ev.get("worker") is not None
        }
    )
    tids = {w: i + 1 for i, w in enumerate(workers)}
    metas = [_meta(pid, 0, "service queue")]
    metas += [_meta(pid, tids[w], f"worker {w}") for w in workers]

    events: List[Dict[str, object]] = []
    open_claims: Dict[tuple, float] = {}

    def _instant(name: str, t: float, tid: int, args: Dict[str, object]) -> None:
        events.append(
            {
                "name": name,
                "cat": "service",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": max(0.0, t) * _US,
                "args": _clean_args(args),
            }
        )

    for ev in telemetry_events:
        kind = str(ev.get("kind"))
        t = float(ev.get("t", 0.0))  # type: ignore[arg-type]
        if t < 0.0:  # provenance header
            continue
        worker = ev.get("worker")
        task = ev.get("task")
        if kind == "claim" and worker is not None:
            open_claims[(worker, task)] = t
        elif kind in ("complete", "requeue", "worker_crash"):
            outcome = {
                "complete": "completed",
                "worker_crash": "crashed",
            }.get(kind, "expired" if ev.get("expired") else "failed")
            start = open_claims.pop((worker, task), None)
            if start is not None and worker in tids:
                events.append(
                    {
                        "name": str(task),
                        "cat": "service",
                        "ph": "X",
                        "pid": pid,
                        "tid": tids[worker],
                        "ts": max(0.0, start) * _US,
                        "dur": max(0.0, t - start) * _US,
                        "args": {"worker": str(worker), "outcome": outcome},
                    }
                )
            if kind == "worker_crash" and worker in tids:
                _instant("worker_crash", t, tids[worker], {"task": str(task)})
        if kind == "lease_expiry" and worker in tids:
            _instant("lease_expiry", t, tids[worker], {"task": str(task)})
        elif kind in _QUEUE_INSTANTS:
            name = (
                f"alert:{ev.get('action')}:{ev.get('rule')}"
                if kind == "alert"
                else kind
            )
            _instant(name, t, 0, {k: v for k, v in ev.items() if k != "kind"})
    return metas + sorted(events, key=lambda e: (e["tid"], e["ts"]))


def chrome_trace(
    spans: Sequence["Span"] = (),
    metadata: Optional[Dict[str, object]] = None,
    telemetry_events: Sequence[Dict[str, object]] = (),
) -> Dict[str, object]:
    """Assemble one trace-event document from spans and service telemetry.

    ``metadata`` lands in the document's ``otherData`` section (the
    format's free-form run-provenance slot); ``telemetry_events`` adds
    the fleet-level service tracks of :func:`service_track_events`.
    """
    events: List[Dict[str, object]] = []
    events.extend(span_events(spans))
    if telemetry_events:
        events.extend(service_track_events(telemetry_events))
    doc: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = metadata
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    spans: Sequence["Span"] = (),
    metadata: Optional[Dict[str, object]] = None,
    telemetry_events: Sequence[Dict[str, object]] = (),
) -> Path:
    """Write a Perfetto-loadable JSON file; returns the path written."""
    path = Path(path)
    doc = chrome_trace(spans, metadata=metadata, telemetry_events=telemetry_events)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
