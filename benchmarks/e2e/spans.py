"""Span recorder, self-time arithmetic and the sampling rules of the harness.

Pure standard library on purpose: ``run.py`` and the self-tests import it
without importing numpy, so the BLAS thread pins are still unset-able when
the measuring child starts.

A span is ``(name, start, end, parent)``; spans of one workload share the
recorder's ``workload`` id.  Spans stay in memory and are written once, when
the workload ends.  A layer's *self time* is its span's duration minus the
part of that interval its child spans cover (overlapping children are
counted once).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A reported percentile must leave at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the recorder's span list."""

    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list of one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record *name* around the ``with`` body, nested under the open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Span every call of ``obj.method`` by shadowing it on the *instance*.

        This is how layer calls are seen from outside: the harness holds the
        instance (a backend, a Hartree solver) and the program calls the
        method through it, so no file under ``src/`` changes.
        """
        inner = getattr(obj, method)

        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, spanned)

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> List[float]:
        """Per span: its duration minus what its children cover."""
        child_intervals: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                child_intervals.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return [
            span.duration
            - covered(child_intervals.get(i, ()), span.start, span.end)
            for i, span in enumerate(self.spans)
        ]

    def self_total(self, name: str) -> float:
        """Summed self time of every span called *name*."""
        return sum(
            t for s, t in zip(self.spans, self.self_times()) if s.name == name
        )

    def under(self, roots: Sequence[Span]) -> List[bool]:
        """Per span: is it one of *roots* or nested, at any depth, in one?"""
        root_ids = {id(r) for r in roots}
        keep: List[bool] = []
        for span in self.spans:  # a parent always precedes its children
            keep.append(
                id(span) in root_ids
                or (span.parent is not None and keep[span.parent])
            )
        return keep

    def layer_self_seconds(
        self, layers: Sequence[str], roots: Sequence[Span]
    ) -> Dict[str, float]:
        """Self time per layer of the spans under *roots*; a span belongs to
        the layer whose name is its longest dotted prefix."""
        out = {layer: 0.0 for layer in layers}
        ordered = sorted(layers, key=len, reverse=True)
        for span, seconds, keep in zip(self.spans, self.self_times(), self.under(roots)):
            if not keep:
                continue
            for layer in ordered:
                if span.name == layer or span.name.startswith(layer + "."):
                    out[layer] += seconds
                    break
        return out

    def write(self, path) -> None:
        doc = {
            "workload": self.workload,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_cost_seconds(n: int = 2000) -> float:
    """Measured cost of recording one empty span (for ``trace.overhead_frac``)."""
    recorder = Recorder("calibration")
    start = time.perf_counter()
    for _ in range(n):
        with recorder.span("x"):
            pass
    return (time.perf_counter() - start) / n


# ----------------------------------------------------------------------
# Sampling rules
# ----------------------------------------------------------------------
def allowed_percentile(n: int) -> int:
    """Highest whole percentile that still has ``MIN_TAIL_SAMPLES`` beyond it.

    Below 20 samples not even the median qualifies, and the median is all
    that is reported.

    >>> allowed_percentile(20), allowed_percentile(67), allowed_percentile(300)
    (50, 85, 96)
    """
    if n < 2 * MIN_TAIL_SAMPLES:
        return 50
    return max(50, math.floor(100.0 * (1.0 - MIN_TAIL_SAMPLES / n)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample.

    A percentile above ``allowed_percentile(len(samples))`` is refused: the
    metric names fix their percentile, so asking for one the sample count
    cannot support is a harness bug, not a noisy number to print.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if q > allowed_percentile(len(samples)):
        raise ValueError(
            f"p{q:g} needs more than {len(samples)} samples "
            f"(at most p{allowed_percentile(len(samples))})"
        )
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)
