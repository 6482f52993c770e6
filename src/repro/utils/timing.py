"""Wall-clock timing helpers used by the SCF/CPSCF drivers and benchmarks.

:class:`PhaseTimer` holds named, accumulating phase timings mirroring
the per-phase breakdown the paper's artifact extracts from its output
file (``DM`` / ``Sumup`` / ``Rho`` / ``H`` / ``Comm``).

When a :class:`~repro.obs.tracer.Tracer` is active (see
:func:`repro.obs.tracer.activate`), every :meth:`PhaseTimer.phase`
visit additionally records a span of category ``"phase"``, which is how
``repro physics --trace`` gets its per-phase timeline without the
drivers being instrumented twice.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.obs.tracer import obs_span


class PhaseTimer:
    """Accumulate wall time per named phase across repeated visits.

    The same phase may be entered many times (once per SCF/CPSCF cycle);
    totals and visit counts accumulate.

    >>> t = PhaseTimer()
    >>> with t.phase("Sumup"):
    ...     pass
    >>> t.visits("Sumup")
    1
    >>> t.add("DM", 0.5, visits=2)
    >>> sorted(t.as_dict()) == ["DM", "Sumup"]
    True
    """

    def __init__(self) -> None:
        self._totals: "OrderedDict[str, float]" = OrderedDict()
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one visit of *name* (and span it when a tracer is active).

        >>> t = PhaseTimer()
        >>> with t.phase("H"):
        ...     pass
        >>> t.total("H") >= 0.0
        True
        """
        # The clock runs inside the tracer span, not around it: a visit
        # times the phase body, not the span's own ~3 us of bookkeeping
        # (3 % of a 100 us H2 Sumup).
        with obs_span(name, category="phase"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self._totals[name] = self._totals.get(name, 0.0) + elapsed
                self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float, visits: int = 1) -> None:
        """Record externally-measured (e.g. model-predicted) time.

        >>> t = PhaseTimer()
        >>> t.add("Comm", 1.5)
        >>> t.total("Comm")
        1.5
        """
        if seconds < 0.0:
            raise ValueError(f"negative phase time for {name!r}: {seconds}")
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + visits

    def total(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 if never visited).

        >>> PhaseTimer().total("DM")
        0.0
        """
        return self._totals.get(name, 0.0)

    def visits(self, name: str) -> int:
        """Number of recorded visits for one phase.

        >>> PhaseTimer().visits("DM")
        0
        """
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """Phase name -> accumulated seconds, in first-seen order.

        >>> t = PhaseTimer()
        >>> t.add("DM", 1.0)
        >>> t.as_dict()
        {'DM': 1.0}
        """
        return dict(self._totals)
