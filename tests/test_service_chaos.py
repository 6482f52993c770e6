"""Service chaos integration: seeded worker crashes vs fault-free runs.

Uses the worker-crash plan (:mod:`repro.service.faults`) and the chaos
harness (:func:`repro.testing.chaos.run_service_chaos`)
to prove the acceptance criterion: a worker crash mid-task is recovered
by lease expiry + bounded retry, and the recomputed result converges to
the **same provenance-stable bytes** as a run that never faulted.

Marked ``service`` (default-off); run with ``pytest -m service`` or
``make service-check``.
"""

from __future__ import annotations

import json

import pytest

from repro.config import get_settings
from repro.service.faults import FaultPlan, ScheduledFault
from repro.service import (
    COMPLETE,
    ERRORED,
    JobRequest,
    StateStore,
    WorkerPool,
    stable_result_bytes,
    submit_batch,
)
from repro.testing.chaos import run_service_chaos

pytestmark = pytest.mark.service


def stub_runner(task):
    """Deterministic, payload-addressed stand-in for the physics runner.

    Carries a volatile ``timings`` subtree (different every call) to
    prove byte-stability comes from quarantining, not from luck.
    """
    import time

    return {
        "task": {"key": task.key},
        "value": sum(ord(c) for c in task.key),
        "timings": {"wall": time.time()},
    }


def jobs(n=3, **kwargs):
    s = get_settings("minimal")
    return [
        JobRequest("h2", s.with_scf(max_iterations=20 + i), **kwargs)
        for i in range(n)
    ]


class TestScheduledCrashRecovery:
    def test_crash_mid_task_requeues_and_converges(self):
        report = run_service_chaos(
            requests=jobs(3),
            seed=11,
            crash_rate=0.0,  # schedule-only: exactly one crash
            schedule=[ScheduledFault(call_index=0,
                                     site="worker:w0")],
            runner=stub_runner,
        )
        assert report.crashes == 1
        assert report.completed == 3
        assert report.errored == 0
        # the crashed task took a second attempt
        assert max(report.attempts.values()) == 2
        assert report.bit_exact, report.summary()

    def test_crashes_on_both_workers_still_converge(self):
        report = run_service_chaos(
            requests=jobs(4),
            seed=12,
            crash_rate=0.0,
            schedule=[
                ScheduledFault(call_index=0, site="worker:w0"),
                ScheduledFault(call_index=0, site="worker:w1"),
            ],
            runner=stub_runner,
        )
        assert report.crashes == 2
        assert report.completed == 4
        assert report.bit_exact

    def test_persistent_crash_exhausts_to_errored(self):
        """An unsurvivable worker bug drains the retry budget terminally."""
        store = StateStore(lease_seconds=2.0)
        submit_batch(store, jobs(1, max_retries=1), commit="x", now=0.0)
        plan = FaultPlan(
            seed=5,
            schedule=[
                ScheduledFault(call_index=i,
                               site="worker:w0", persistent=True)
                for i in range(4)
            ],
        )
        pool = WorkerPool(store, n_workers=1, runner=stub_runner,
                          fault_plan=plan, start_time=0.0)
        report = pool.run_until_idle()
        assert report.idle
        assert report.crashes == 2  # first try + single retry
        (task,) = store.tasks(ERRORED)
        assert task.attempts == 2
        assert "lease expired" in task.error


class TestFlakyRunnerRecovery:
    def test_runner_exception_requeues_and_retries_to_success(self):
        """A raising runner is the *cooperative* failure path (``fail``
        with backoff), distinct from a crash (silence + lease expiry);
        the pool retries it to the same answer."""
        store = StateStore(lease_seconds=2.0)
        submit_batch(store, jobs(1, max_retries=3), commit="x", now=0.0)
        calls = {"n": 0}

        def flaky(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient kernel error")
            return stub_runner(task)

        pool = WorkerPool(store, n_workers=1, runner=flaky, start_time=0.0)
        report = pool.run_until_idle()
        assert report.failed == 1 and report.completed == 1
        (task,) = store.tasks(COMPLETE)
        assert task.attempts == 2
        assert store.result_for_key(task.key)["value"] == \
            sum(ord(c) for c in task.key)


class TestRandomizedCrashSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_crash_rates_converge_bit_exact(self, seed):
        report = run_service_chaos(
            requests=jobs(4, max_retries=6),
            seed=seed,
            crash_rate=0.4,
            schedule=[],
            runner=stub_runner,
        )
        assert report.errored == 0
        assert report.completed == 4
        assert report.bit_exact, report.summary()

    def test_same_seed_same_fault_decisions(self):
        kwargs = dict(
            requests=jobs(3, max_retries=6),
            crash_rate=0.5,
            schedule=[],
            runner=stub_runner,
        )
        a = run_service_chaos(seed=77, **kwargs)
        b = run_service_chaos(seed=77, **kwargs)
        assert a.crashes == b.crashes
        assert a.attempts == b.attempts
        assert a.payload_bytes == b.payload_bytes


class TestJournaledChaos:
    def test_chaos_with_journal_replays_consistently(self, tmp_path):
        path = tmp_path / "chaos-journal.jsonl"
        report = run_service_chaos(
            requests=jobs(2),
            seed=11,
            crash_rate=0.0,
            schedule=[ScheduledFault(call_index=0,
                                     site="worker:w0")],
            runner=stub_runner,
            store_path=path,
        )
        assert report.bit_exact
        replayed = StateStore(path)
        assert len(replayed.tasks(COMPLETE)) == 2
        for task in replayed.tasks(COMPLETE):
            assert (
                stable_result_bytes(replayed.result_for_key(task.key))
                == report.reference_bytes[task.key]
            )


class TestPhysicsPayloadStability:
    def test_real_run_report_payload_is_provenance_stable(self):
        """The acceptance criterion, end to end on real physics: a
        seeded crash forces a full SCF+CPSCF recomputation whose
        RunReport payload is byte-identical to the fault-free run."""
        report = run_service_chaos(
            requests=[JobRequest("h2", get_settings("minimal"))],
            seed=2023,
            crash_rate=0.0,
            schedule=[ScheduledFault(call_index=0,
                                     site="worker:w0")],
            runner=None,  # the real physics runner
            n_workers=1,
        )
        assert report.crashes == 1
        assert report.completed == 1
        assert report.bit_exact, report.summary()
        (payload,) = report.payload_bytes.values()
        doc = json.loads(payload)
        # provenance-linked, physics-bearing, timings quarantined away
        assert doc["provenance"]["settings_hash"]
        assert doc["molecule"] == "H2"
        assert "timings" not in doc
        assert len(doc["polarizability"]) == 3


class TestFleetCrashRecovery:
    """Fleet-mode waves under injected crashes: partial-wave loss is
    recovered by lease expiry, and the drained bytes match a pool that
    never ran in fleet mode (the reference stays sequential)."""

    def test_crash_mid_wave_requeues_only_unfinished_tasks(self):
        report = run_service_chaos(
            requests=jobs(4),
            seed=13,
            n_workers=1,
            fleet=4,
            crash_rate=0.0,  # schedule-only: one mid-wave crash
            schedule=[ScheduledFault(call_index=2,
                                     site="worker:w0")],
            runner=stub_runner,
        )
        assert report.crashes == 1
        assert report.completed == 4
        assert report.errored == 0
        # Tasks claimed before the crash completed on their first
        # attempt; the abandoned remainder of the wave took a second.
        assert sorted(report.attempts.values()) == [1, 1, 2, 2]
        assert report.bit_exact, report.summary()

    def test_random_crash_rates_converge_bit_exact_in_fleet_mode(self):
        report = run_service_chaos(
            requests=jobs(5, max_retries=6),
            seed=21,
            n_workers=2,
            fleet=3,
            crash_rate=0.4,
            schedule=[],
            runner=stub_runner,
        )
        assert report.errored == 0
        assert report.completed == 5
        assert report.bit_exact, report.summary()

    def test_real_physics_fleet_wave_survives_crash_byte_stable(self):
        """End to end on real physics: a crashed fleet wave is retried
        through the shared-substrate driver and converges to the same
        bytes as a sequential, fault-free pool."""
        s = get_settings("minimal")
        report = run_service_chaos(
            requests=[
                JobRequest("h2", s.with_scf(max_iterations=20 + i))
                for i in range(2)
            ],
            seed=2023,
            n_workers=1,
            fleet=2,
            crash_rate=0.0,
            schedule=[ScheduledFault(call_index=0,
                                     site="worker:w0")],
            runner=None,  # the real physics runner, fleet waves
        )
        assert report.crashes == 1
        assert report.completed == 2
        assert report.errored == 0
        assert report.bit_exact, report.summary()
