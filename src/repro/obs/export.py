"""Chrome trace-event (Perfetto-loadable) export (DESIGN §10.4).

:class:`~repro.obs.tracer.Span` records become one ``traceEvents`` JSON
file, one track per span ``rank`` attribute (default rank 0): the
spans of a measured physics run, or the per-claim worker spans
``repro serve --trace`` reads off the statestore journal
(:func:`repro.service.slo.worker_spans`), so a served job opens in the
same UI as a measured run.

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

#: Process id of the span tracks.
MEASURED_PID = 0

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
    """The JSON scalars of *attrs*, and lists of them (a CPSCF block's
    ``directions``)."""
    def scalar(v: object) -> bool:
        return isinstance(v, (str, int, float, bool))

    return {
        k: list(v) if isinstance(v, (list, tuple)) else v
        for k, v in attrs.items()
        if scalar(v) or (isinstance(v, (list, tuple)) and all(map(scalar, v)))
    }


def span_events(
    spans: Sequence["Span"], pid: int = MEASURED_PID
) -> List[Dict[str, object]]:
    """Trace events for spans, one track per ``rank`` attribute.

    A track is named by its spans' ``track`` attribute, else ``rank N``.
    Every span becomes a complete (``ph="X"``) event.
    """
    events: List[Dict[str, object]] = []
    seen_tids: Dict[int, str] = {}
    for sp in spans:
        tid = int(sp.attrs.get("rank", 0))  # type: ignore[arg-type]
        seen_tids.setdefault(tid, str(sp.attrs.get("track", f"rank {tid}")))
        events.append({
            "name": sp.name,
            "cat": sp.category,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": max(0.0, sp.start) * _US,
            "dur": sp.duration * _US,
            "args": _clean_args(sp.attrs),
        })
    metas = [_meta(pid, tid, name) for tid, name in sorted(seen_tids.items())]
    return metas + sorted(events, key=lambda e: (e["tid"], e["ts"]))


def chrome_trace(
    spans: Sequence["Span"] = (),
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one trace-event document from spans.

    ``metadata`` lands in the document's ``otherData`` section (the
    format's free-form run-provenance slot).
    """
    doc: Dict[str, object] = {
        "traceEvents": span_events(spans),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = metadata
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    spans: Sequence["Span"] = (),
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a Perfetto-loadable JSON file; returns the path written."""
    path = Path(path)
    doc = chrome_trace(spans, metadata=metadata)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
