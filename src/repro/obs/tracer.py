"""Span-based tracing for the SCF/CPSCF pipeline (DESIGN §10.2).

A :class:`Span` is one timed region with free-form attributes (phase,
rank, cycle, backend, comm scheme, worker …); a :class:`Tracer`
collects spans and instant events.

Context propagation is *ambient*: a tracer is installed with
:func:`activate`, and instrumentation points anywhere in the codebase
(``PhaseTimer``, the execution backends, ``SimComm`` collectives, the
service workers) call the module-level helpers :func:`obs_span`,
:func:`obs_event` and :func:`trace_context`.
When no tracer is active every helper is a cheap no-op, so the physics
hot loop pays nothing by default.

>>> tracer = Tracer()
>>> with activate(tracer):
...     with trace_context(cycle=1):
...         with obs_span("Sumup", category="phase"):
...             pass
>>> [s.name for s in tracer.spans]
['Sumup']
>>> tracer.spans[0].attrs["cycle"]
1
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: The ambient tracer (None = tracing disabled, helpers are no-ops).
_ACTIVE: "ContextVar[Optional[Tracer]]" = ContextVar("repro_obs_tracer", default=None)

#: Ambient attribute stack, merged into every span/event opened below it.
_CONTEXT: "ContextVar[Dict[str, object]]" = ContextVar("repro_obs_context", default={})


@dataclass
class Span:
    """One timed region of the run.

    Timestamps are seconds relative to the owning tracer's epoch, so a
    fresh trace always starts near ``t=0`` and exported timestamps are
    non-negative and monotonic within a track.

    >>> s = Span(name="H", category="phase", start=0.0, end=0.25)
    >>> round(s.duration, 2)
    0.25
    """

    name: str
    category: str = "phase"
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    instant: bool = False

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 for instant events)."""
        return max(0.0, self.end - self.start)


class Tracer:
    """Collect spans and instant events for one run.

    >>> t = Tracer()
    >>> with t.span("DM", cycle=3):
    ...     pass
    >>> t.spans[0].attrs
    {'cycle': 3}
    >>> t.wall_seconds() >= t.spans[0].duration
    True
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    @contextmanager
    def span(self, name: str, category: str = "phase", **attrs) -> Iterator[Span]:
        """Open one span; ambient context attributes are merged in."""
        merged = dict(_CONTEXT.get())
        merged.update(attrs)
        sp = Span(name=name, category=category, start=self._now(), attrs=merged)
        try:
            yield sp
        finally:
            sp.end = self._now()
            self.spans.append(sp)

    def event(self, name: str, category: str = "fault", **attrs) -> Span:
        """Record an instant (zero-duration) event, e.g. an injected fault."""
        merged = dict(_CONTEXT.get())
        merged.update(attrs)
        now = self._now()
        sp = Span(
            name=name, category=category, start=now, end=now,
            attrs=merged, instant=True,
        )
        self.spans.append(sp)
        return sp

    def wall_seconds(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._now()

    def spans_of(self, category: str) -> List[Span]:
        """All spans of one category, in completion order."""
        return [s for s in self.spans if s.category == category]

    def phase_wall(self, category: str = "phase") -> float:
        """Summed duration of one category's spans.

        Driver phases are sequential and non-overlapping, so for
        ``category="phase"`` this equals the run's reported phase wall
        time (the acceptance check behind ``repro physics --trace``).
        """
        return sum(s.duration for s in self.spans_of(category))


def activate(tracer: Optional[Tracer]):
    """Install *tracer* as the ambient tracer for a ``with`` block.

    >>> with activate(Tracer()) as t:
    ...     current_tracer() is t
    True
    >>> current_tracer() is None
    True
    """

    @contextmanager
    def _ctx():
        token = _ACTIVE.set(tracer)
        try:
            yield tracer
        finally:
            _ACTIVE.reset(token)

    return _ctx()


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or None when tracing is off."""
    return _ACTIVE.get()


@contextmanager
def trace_context(**attrs) -> Iterator[None]:
    """Push ambient attributes (cycle, rank, backend …) for a block.

    Nested contexts merge; inner values win.  Attributes apply even when
    no tracer is active yet (they are orthogonal to span recording).

    >>> with trace_context(cycle=2, backend="numpy"):
    ...     with trace_context(cycle=3):
    ...         sorted(current_context().items())
    [('backend', 'numpy'), ('cycle', 3)]
    """
    merged = dict(_CONTEXT.get())
    merged.update(attrs)
    token = _CONTEXT.set(merged)
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def current_context() -> Dict[str, object]:
    """A copy of the ambient attribute dict."""
    return dict(_CONTEXT.get())


@contextmanager
def obs_span(name: str, category: str = "phase", **attrs) -> Iterator[Optional[Span]]:
    """Span on the ambient tracer; no-op (yields None) when tracing is off.

    >>> with obs_span("Rho"):
    ...     pass  # no tracer active: nothing recorded, nothing raised
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, category=category, **attrs) as sp:
        yield sp


def obs_event(name: str, category: str = "fault", **attrs) -> Optional[Span]:
    """Instant event on the ambient tracer; None when tracing is off."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return None
    return tracer.event(name, category=category, **attrs)

