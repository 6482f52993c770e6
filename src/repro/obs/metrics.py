"""Counters for the observability layer (DESIGN §10.3).

A *metric* is a named scalar accumulated over one run — bytes reduced,
block-cache hits, basis blocks evaluated, collective retries — as
opposed to a *span*, which is a timed region.  The registry is
deliberately deterministic: metric values depend only on the work
performed, never on wall-clock time, so two bit-identical runs (e.g.
the same sweep under two execution backends) produce identical
snapshots.  That determinism is what the regression gate and the
cross-backend tests assert.

>>> reg = MetricsRegistry()
>>> reg.counter("comm.bytes_reduced").inc(1024)
>>> reg.counter("comm.bytes_reduced").inc(1024)
>>> reg.as_dict()["counters"]["comm.bytes_reduced"]
2048
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class Counter:
    """Monotonically increasing integer metric.

    >>> c = Counter("retries")
    >>> c.inc(); c.inc(2); c.value
    3
    """

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0; counters never decrease)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += int(amount)


class MetricsRegistry:
    """Get-or-create store of named metrics with a deterministic snapshot.

    Names are free-form dotted paths (``comm.bytes_reduced``,
    ``backend.Sumup.calls``); the snapshot is sorted by name so its JSON
    form is byte-stable across runs that performed the same work.

    >>> reg = MetricsRegistry()
    >>> reg.counter("a").inc(); reg.counter("a").value
    1
    >>> reg.counter("a") is reg.counter("a")
    True
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly snapshot, sorted by metric name."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
        }
