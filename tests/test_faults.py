"""The service's worker-crash plan (:mod:`repro.service.faults`).

The decisions behind ``repro serve --crash-rate`` and
``run_service_chaos``: seeded, per claim, reproducible.  The drains
that recover from them are in ``tests/test_service_chaos.py`` and
``tests/test_telemetry.py``.
"""

import math

import pytest

from repro.errors import FaultInjectionError
from repro.service.faults import FaultEvent, FaultPlan, ScheduledFault


def crashes(plan, n=40, site="worker:w0", attempt=0):
    """The claim indices at which *plan* crashes *site*, among the first n."""
    return [i for i in range(n) if plan.worker_fault(site, i, attempt) is not None]


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        for _ in range(2):
            plans = [FaultPlan(seed=7, crash_rate=0.5) for _ in range(2)]
            assert crashes(plans[0]) == crashes(plans[1])

    def test_different_seeds_differ(self):
        def hits(seed):
            return crashes(FaultPlan(seed=seed, crash_rate=0.5))

        assert hits(1) != hits(2)

    def test_schedule_fires_at_exact_call(self):
        plan = FaultPlan(schedule=[ScheduledFault(call_index=3)])
        hits = [plan.worker_fault("worker:w0", i) for i in range(6)]
        assert [e is not None for e in hits] == [False, False, False, True, False, False]
        assert hits[3] == FaultEvent(site="worker:w0[3]", detail="scheduled")
        # Non-persistent: the task's retry attempt is not crashed.
        assert plan.worker_fault("worker:w0", 3, attempt=1) is None

    def test_persistent_schedule_fires_every_attempt(self):
        plan = FaultPlan(schedule=[ScheduledFault(0, persistent=True)])
        for attempt in range(5):
            ev = plan.worker_fault("worker:w0", 0, attempt)
            assert ev is not None and ev.detail == "scheduled persistent"

    def test_rate_validation(self):
        for rate in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(FaultInjectionError, match=r"must be in \[0, 1\]"):
                FaultPlan(crash_rate=rate)
        with pytest.raises(FaultInjectionError, match="call_index"):
            ScheduledFault(-1)
