"""Seeded worker-crash injection for the service's :class:`WorkerPool`.

A :class:`FaultPlan` decides, for each task a worker claims, whether
that worker dies before finishing it.  A crashed worker abandons the
task without completing or failing it — what a dead process looks like
to the statestore — and recovery is the store's lease expiry plus its
bounded retry.  ``repro serve --crash-rate`` and
:func:`~repro.testing.chaos.run_service_chaos` are the two drivers.

Decisions are reproducible in any process: each comes from its own RNG
stream seeded by ``(seed, crc32(site), attempt)``, never by interpreter
state or by the order other sites were asked in.  An explicit
:class:`ScheduledFault` list forces a crash at a known claim.

>>> plan = FaultPlan(schedule=[ScheduledFault(call_index=1, site="worker:w0")])
>>> [plan.worker_fault("worker:w0", i) is not None for i in range(3)]
[False, True, False]
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import FaultInjectionError


@dataclass(frozen=True)
class FaultEvent:
    """One injected worker crash: the claim it hit and why it fired."""

    site: str
    detail: str


@dataclass(frozen=True)
class ScheduledFault:
    """A crash pinned to one claim index.

    ``call_index`` counts the tasks one worker has claimed; ``site``
    optionally restricts the match to sites starting with that prefix
    (``"worker:w0"``).  A ``persistent`` fault fires on every retry
    attempt of the task, not only the first.
    """

    call_index: int
    site: Optional[str] = None
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.call_index < 0:
            raise FaultInjectionError(
                f"call_index must be >= 0, got {self.call_index}"
            )

    def matches(self, site: str, call_index: int, attempt: int) -> bool:
        if self.call_index != call_index:
            return False
        if self.site is not None and not site.startswith(self.site):
            return False
        return attempt == 0 or self.persistent


class FaultPlan:
    """Seeded, deterministic worker-crash decisions for one drain.

    ``crash_rate`` is the probability that one claim crashes its worker;
    ``schedule`` adds crashes at fixed claims.  The same
    ``(seed, crash_rate, schedule)`` always crashes the same claims.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_rate: float = 0.0,
        schedule: Sequence[ScheduledFault] = (),
    ) -> None:
        if not 0.0 <= crash_rate <= 1.0:  # NaN fails both comparisons
            raise FaultInjectionError(
                f"worker_crash rate must be in [0, 1], got {crash_rate}"
            )
        self.seed = int(seed)
        self.crash_rate = float(crash_rate)
        self.schedule = list(schedule)

    def worker_fault(
        self, site: str, call_index: int, attempt: int = 0
    ) -> Optional[FaultEvent]:
        """Decide whether one service worker crashes on one claimed task.

        ``site`` is the worker's identity (e.g. ``"worker:w0"``),
        ``call_index`` counts the tasks that worker has claimed and
        ``attempt`` is the task's retry attempt (``task.attempts - 1``),
        so a rescheduled task draws a fresh decision — the property the
        service chaos suite's convergence assertions rely on.
        """
        full_site = f"{site}[{call_index}]"
        for sf in self.schedule:
            if sf.matches(full_site, call_index, attempt):
                return FaultEvent(
                    site=full_site,
                    detail="scheduled" + (" persistent" if sf.persistent else ""),
                )
        rng = np.random.default_rng(
            [self.seed, zlib.crc32(full_site.encode()), attempt]
        )
        if float(rng.random()) < self.crash_rate:
            return FaultEvent(site=full_site, detail="random")
        return None
