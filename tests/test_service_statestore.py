"""Alchemiscale-style contract suite for the service statestore.

Pins the task-lifecycle semantics the whole service layer rests on
(DESIGN §12.2): priority-then-FIFO claiming, impossible double-claims,
lease expiry, bounded retry with backoff, terminal ``errored``,
idempotent content-addressed resubmission and byte-faithful journal
replay.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import (
    ArtifactError,
    ServiceError,
    TaskTransitionError,
)
from repro.service import (
    CLAIMED,
    COMPLETE,
    ERRORED,
    RUNNING,
    WAITING,
    StateStore,
    WorkerPool,
)
from repro.utils.journal import truncate_torn_tail


def make_store(**kwargs):
    kwargs.setdefault("lease_seconds", 10.0)
    return StateStore(**kwargs)


def submit(store, key, **kwargs):
    kwargs.setdefault("now", 0.0)
    return store.submit({"job": key}, key=key, **kwargs)


class TestSubmit:
    def test_submit_creates_waiting_task(self):
        store = make_store()
        out = submit(store, "k1")
        assert out.fresh and not out.cache_hit and not out.deduplicated
        assert out.task.status == WAITING
        assert out.task.key == "k1"
        assert out.task.attempts == 0

    def test_task_ids_are_sequential(self):
        store = make_store()
        ids = [submit(store, f"k{i}").task.task_id for i in range(3)]
        assert ids == ["t-000001", "t-000002", "t-000003"]

    def test_submit_records_client_and_priority(self):
        store = make_store()
        task = submit(store, "k1", client="alice", priority=7).task
        assert task.client == "alice"
        assert task.priority == 7

    def test_negative_max_retries_rejected(self):
        store = make_store()
        with pytest.raises(ServiceError):
            submit(store, "k1", max_retries=-1)


class TestClaim:
    def test_claim_respects_priority_then_fifo(self):
        store = make_store()
        submit(store, "low-a", priority=0)
        submit(store, "high", priority=5)
        submit(store, "low-b", priority=0)
        order = [t.key for t in store.claim("w0", limit=3, now=1.0)]
        assert order == ["high", "low-a", "low-b"]

    def test_claim_marks_task_claimed(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        assert task.status == CLAIMED
        assert task.worker == "w0"
        assert task.attempts == 1
        assert task.lease_expires == pytest.approx(11.0)

    def test_double_claim_impossible(self):
        store = make_store()
        submit(store, "k1")
        assert store.claim("w0", now=1.0)
        assert store.claim("w1", now=1.0) == []

    def test_claim_limit_bounds_batch(self):
        store = make_store()
        for i in range(5):
            submit(store, f"k{i}")
        assert len(store.claim("w0", limit=2, now=1.0)) == 2
        assert len(store.claim("w1", limit=10, now=1.0)) == 3

    def test_claim_skips_backed_off_tasks(self):
        store = make_store()
        submit(store, "k1", max_retries=3)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        # backoff after attempt 1 is base * factor**0 = 1s -> eligible at 3.0
        assert store.claim("w1", now=2.5) == []
        assert [t.key for t in store.claim("w1", now=3.0)] == ["k1"]

    def test_claim_limit_must_be_positive(self):
        store = make_store()
        with pytest.raises(ServiceError):
            store.claim("w0", limit=0, now=1.0)

    def test_terminal_tasks_never_claimable(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        assert store.get(task.task_id).status == ERRORED
        assert store.claim("w1", now=100.0) == []


class TestWorkerLifecycle:
    def test_start_moves_claimed_to_running(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.start(task.task_id, "w0", now=1.5)
        assert store.get(task.task_id).status == RUNNING

    def test_start_by_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.start(task.task_id, "w1", now=1.5)

    def test_heartbeat_extends_lease(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        deadline = store.heartbeat(task.task_id, "w0", now=8.0)
        assert deadline == pytest.approx(18.0)
        assert store.expire_leases(now=12.0) == []

    def test_heartbeat_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.heartbeat(task.task_id, "w1", now=2.0)

    def test_heartbeat_on_waiting_task_rejected(self):
        store = make_store()
        out = submit(store, "k1")
        with pytest.raises(TaskTransitionError):
            store.heartbeat(out.task.task_id, "w0", now=1.0)

    def test_complete_stores_result(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 4.5}, now=2.0)
        assert store.get(task.task_id).status == COMPLETE
        assert store.result_for_key("k1") == {"alpha": 4.5}

    def test_complete_by_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.complete(task.task_id, "w1", {}, now=2.0)

    def test_complete_unclaimed_task_rejected(self):
        store = make_store()
        out = submit(store, "k1")
        with pytest.raises(TaskTransitionError):
            store.complete(out.task.task_id, "w0", {}, now=1.0)

    def test_complete_twice_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {}, now=2.0)
        with pytest.raises(TaskTransitionError):
            store.complete(task.task_id, "w0", {}, now=3.0)

    def test_unknown_task_rejected(self):
        store = make_store()
        with pytest.raises(TaskTransitionError):
            store.heartbeat("t-999999", "w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.get("t-999999")


class TestRetryAndBackoff:
    def test_fail_requeues_with_backoff(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "kaboom", now=2.0)
        t = store.get(task.task_id)
        assert t.status == WAITING
        assert t.error == "kaboom"
        assert t.not_before == pytest.approx(3.0)  # 2.0 + 1*2**0

    def test_backoff_grows_exponentially(self):
        store = make_store()
        out = submit(store, "k1", max_retries=5)
        delays = []
        now = 0.0
        for _ in range(3):
            now = store.get(out.task.task_id).not_before + 0.5
            (task,) = store.claim("w0", now=now)
            store.fail(task.task_id, "w0", "x", now=now)
            delays.append(store.get(task.task_id).not_before - now)
        assert delays == [pytest.approx(1.0), pytest.approx(2.0),
                          pytest.approx(4.0)]

    def test_retry_budget_exhausts_to_errored(self):
        store = make_store()
        out = submit(store, "k1", max_retries=2)
        now = 0.0
        for attempt in range(3):  # 1 first try + 2 retries
            now = store.get(out.task.task_id).not_before + 0.5
            (task,) = store.claim("w0", now=now)
            store.fail(task.task_id, "w0", f"fail {attempt}", now=now)
        final = store.get(out.task.task_id)
        assert final.status == ERRORED
        assert final.attempts == 3
        assert final.terminal


class TestLeaseExpiry:
    def test_expired_lease_requeues(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        expired = store.expire_leases(now=12.0)  # lease was 1.0 + 10.0
        assert [t.task_id for t in expired] == [task.task_id]
        t = store.get(task.task_id)
        assert t.status == WAITING
        assert t.worker is None
        assert "lease expired" in t.error

    def test_unexpired_lease_untouched(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        assert store.expire_leases(now=10.5) == []

    def test_expiry_applies_to_running_tasks(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.start(task.task_id, "w0", now=2.0)
        assert len(store.expire_leases(now=20.0)) == 1
        assert store.get(task.task_id).status == WAITING

    def test_expiry_respects_retry_budget(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        store.claim("w0", now=1.0)
        (expired,) = store.expire_leases(now=20.0)
        assert store.get(expired.task_id).status == ERRORED

    def test_requeued_task_claimable_by_other_worker(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        store.expire_leases(now=12.0)
        eligible_at = store.get("t-000001").not_before
        (task,) = store.claim("w1", now=eligible_at + 0.1)
        assert task.worker == "w1"
        assert task.attempts == 2


class TestIdempotentResubmission:
    def test_completed_key_is_cache_hit(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 1.25}, now=2.0)
        out = submit(store, "k1", now=3.0)
        assert out.cache_hit
        assert out.result == {"alpha": 1.25}
        assert len(store.tasks()) == 1  # no new task enqueued

    def test_live_key_deduplicates(self):
        store = make_store()
        first = submit(store, "k1")
        out = submit(store, "k1", now=1.0)
        assert out.deduplicated
        assert out.task.task_id == first.task.task_id
        assert len(store.tasks()) == 1

    def test_claimed_key_still_deduplicates(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        assert submit(store, "k1", now=2.0).deduplicated

    def test_errored_key_resubmission_revives(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        out = submit(store, "k1", now=3.0)
        assert out.resubmitted and out.fresh
        revived = store.get(task.task_id)
        assert revived.status == WAITING
        assert revived.attempts == 0
        assert revived.error == ""
        assert revived.resubmissions == 1


class TestJournalPersistence:
    def test_replay_reproduces_state(self, tmp_path):
        path = tmp_path / "svc" / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1", priority=3)
        submit(store, "k2")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 2.5}, now=2.0)

        replayed = make_store(path=path)
        assert replayed.counts() == store.counts()
        assert replayed.result_for_key("k1") == {"alpha": 2.5}
        assert replayed.get("t-000002").status == WAITING
        assert [t.task_id for t in replayed.tasks()] == ["t-000001", "t-000002"]

    @pytest.mark.parametrize("line", [
        {"op": "set_quota", "client": "alice", "max_active": 2},
        {"op": "cancel", "task_id": "t-000001", "now": 1.0},
    ], ids=["set_quota", "cancel"])
    def test_a_retired_op_fails_replay(self, tmp_path, line):
        """Per-client quotas and cancellation are gone; no command ever
        journaled either op, and a journal that holds one is refused."""
        path = tmp_path / "journal.jsonl"
        submit(make_store(path=path), "k1")
        with path.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        with pytest.raises(ServiceError, match="unknown statestore journal op"):
            make_store(path=path)

    def test_replay_preserves_claims_for_crash_recovery(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        store.claim("w0", now=1.0)
        del store  # simulate service-process crash

        recovered = make_store(path=path)
        t = recovered.get("t-000001")
        assert t.status == CLAIMED and t.worker == "w0"
        recovered.expire_leases(now=12.0)
        assert recovered.get("t-000001").status == WAITING

    def test_journal_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "journal.jsonl"
        make_store(path=path)
        assert path.exists()

    def test_corrupt_journal_raises_service_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"op": "submit"\n')
        with pytest.raises(ServiceError):
            make_store(path=path)

    def test_corrupt_line_mid_file_names_path_and_lineno(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        with path.open("a") as fh:
            fh.write('{"op": "cla\n')
        submit(store, "k2")
        with pytest.raises(ServiceError, match=re.escape(f"{path}:2")):
            make_store(path=path)

    def test_torn_tail_reopens_to_pre_tear_state(self, tmp_path):
        """A killed writer leaves half a line; every later open used to
        raise ServiceError on it."""
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 2.5}, now=2.0)
        submit(store, "k2")
        before, clean = store.counts(), path.read_bytes()
        with path.open("a") as fh:
            fh.write('{"op": "claim", "task_id": "t-0000')

        reopened = make_store(path=path)
        assert reopened.counts() == before
        assert reopened.result_for_key("k1") == {"alpha": 2.5}
        assert reopened.torn_tail_bytes == 34
        assert "torn_tail_bytes=34" in reopened.render_status(now=3.0)
        assert path.read_bytes() == clean  # the tail was cut off

        # Appends land on a line boundary again; the next open is clean.
        reopened.claim("w1", now=3.0)
        again = make_store(path=path)
        assert again.torn_tail_bytes == 0
        assert "torn_tail_bytes" not in again.render_status(now=4.0)
        assert again.get("t-000002").status == CLAIMED

    @staticmethod
    def _requeues(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        return [line for line in lines if line["op"] == "requeue"]

    def test_a_failed_attempt_journals_its_convergence_history(self, tmp_path):
        """An SCF that runs out of cycles: the job ends errored, and each
        attempt's requeue line holds the per-cycle history ``repro
        physics --report`` writes under ``extra["error"]``."""
        from repro.config import get_settings
        from repro.service import submit_job
        from repro.service.jobs import JobRequest

        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        settings = get_settings("minimal").with_scf(max_iterations=1)
        task = submit_job(
            store, JobRequest("h2", settings, max_retries=1), commit="h", now=0.0
        ).task
        WorkerPool(store, n_workers=1).run_until_idle()
        assert store.get(task.task_id).status == ERRORED
        requeues = self._requeues(path)
        assert [line["terminal"] for line in requeues] == [False, True]
        for line in requeues:
            assert line["error"].startswith("SCFConvergenceError: ")
            (cycle,) = line["history"]
            assert set(cycle) == {"residual", "energy"}
        assert make_store(path=path).counts() == store.counts()

    def test_a_failure_without_history_journals_none(self, tmp_path):
        """Only a non-empty history reaches the journal: every other
        failure's line keeps its bytes."""
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1", max_retries=1)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "ServiceError: no", now=2.0, history=[])
        (task,) = store.claim("w0", now=10.0)
        store.fail(task.task_id, "w0", "ServiceError: no", now=11.0)
        assert [sorted(line) for line in self._requeues(path)] == [
            ["error", "expired", "not_before", "now", "op", "task_id",
             "terminal", "worker"],
        ] * 2

    def test_journal_lines_are_valid_sorted_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"x": 1}, now=2.0)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True)


class TestArtifactGuard:
    """Satellite fix: the overwrite guard covers the journal path."""

    def test_fresh_over_existing_journal_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_store(path=path)
        with pytest.raises(ArtifactError, match="--force"):
            make_store(path=path, fresh=True)

    def test_fresh_with_force_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        fresh = make_store(path=path, fresh=True, force=True)
        assert fresh.tasks() == []
        assert path.read_text() == ""

    def test_directory_path_refused(self, tmp_path):
        with pytest.raises(ArtifactError):
            make_store(path=tmp_path, fresh=True)

    def test_cli_fresh_collision_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        make_store(path=path)
        rc = main(["serve", "--store", str(path), "--fresh"])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["serve", "--fleet", "0"], "positive integer", id="--fleet-0"),
        pytest.param(["serve", "--fleet", "-1"], "positive integer", id="--fleet--1"),
        pytest.param(["serve", "--fleet", "auto"], "positive integer", id="--fleet-auto"),
        pytest.param(["serve", "--workers", "0"], "positive integer", id="--workers-0"),
        pytest.param(["serve", "--crash-rate", "2"], "must be in [0, 1]",
                     id="--crash-rate-2"),
        pytest.param(["serve", "--crash-rate", "nan"], "must be in [0, 1]",
                     id="--crash-rate-nan"),
        pytest.param(["status", "--watch", "--iterations", "2", "--interval", "-1"],
                     "finite non-negative", id="--interval--1"),
        pytest.param(["status", "--watch", "--iterations", "2", "--interval", "nan"],
                     "finite non-negative", id="--interval-nan"),
        pytest.param(["slo", "--window", "nan"], "finite positive", id="--window-nan"),
        pytest.param(["slo", "--window", "0"], "finite positive", id="--window-0"),
    ])
    def test_cli_serve_bad_size_exits_2_before_opening_the_store(
        self, tmp_path, capsys, argv, message
    ):
        """The sizes used to print "waves of up to 0 task(s)" and create
        the journal before failing; ``--crash-rate 2`` failed only after
        creating it, and ``nan`` ran a drain with no crash injected; a
        bad ``--interval`` or ``--window`` ended in a traceback."""
        from repro.cli import main

        path = tmp_path / "s.jsonl"
        try:
            code = main([*argv, "--store", str(path)])
        except SystemExit as exc:  # argparse's own rejection
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lease_or_backoff_refused_before_the_journal(
        self, tmp_path, value
    ):
        """A NaN lease was journaled as a bare ``NaN`` token and never
        expired.  The backoff is no longer an argument (module constants
        ``BACKOFF_BASE`` / ``BACKOFF_FACTOR``), so the lease is the one
        number left to refuse."""
        with pytest.raises(ServiceError, match="finite"):
            StateStore(tmp_path / "s.jsonl", lease_seconds=value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_cli_non_finite_lease_exits_2_before_the_journal(
        self, tmp_path, capsys, value
    ):
        from repro.cli import main

        path = tmp_path / "s.jsonl"
        argv = ["serve", "--store", str(path), "--lease-seconds", value,
                "--crash-rate", "0.9", "--max-steps", "50"]
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestStatusReadsWithoutOwning:
    """``repro status`` replays the journal through the reader ``repro slo``
    uses.  It used to open it as its owner: it created a missing journal,
    cut a live writer's half-written last line and, under ``--fresh
    --force``, emptied the journal."""

    @staticmethod
    def _journal(tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 2.5}, now=2.0)
        submit(store, "k2")
        return path

    @pytest.mark.parametrize("tail", ["", '{"op": "claim", "task_id": "t-0000'],
                             ids=["intact", "torn-tail"])
    def test_journal_bytes_unchanged(self, tmp_path, capsys, tail):
        from repro.cli import main

        path = self._journal(tmp_path)
        with path.open("a") as fh:
            fh.write(tail)
        before = path.read_bytes()
        assert main(["status", "--store", str(path)]) == 0
        assert main(["status", "--store", str(path), "--watch",
                     "--iterations", "2", "--interval", "0"]) == 0
        assert path.read_bytes() == before
        out = capsys.readouterr().out
        assert out.count("waiting=1  complete=1") == 3

    def test_snapshot_renders_what_the_owner_renders(self, tmp_path):
        path = self._journal(tmp_path)
        snapshot = StateStore.snapshot(path)
        assert snapshot.render_status(now=5.0) == make_store(
            path=path).render_status(now=5.0)

    def test_missing_journal_exits_2_and_creates_nothing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["status", "--store", str(tmp_path / "none.jsonl")]) == 2
        assert "no statestore journal" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestQueriesAndRendering:
    def test_tasks_filter_validates_status(self):
        store = make_store()
        with pytest.raises(ServiceError):
            store.tasks("bogus")

    def test_counts_and_tasks_by_status(self):
        store = make_store()
        submit(store, "k1")
        submit(store, "k2")
        store.claim("w0", now=1.0)
        assert store.counts() == {"waiting": 1, "claimed": 1}
        assert [t.key for t in store.tasks(WAITING)] == ["k2"]

    def test_render_status_mentions_tasks_and_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1", client="alice")
        text = store.render_status()
        assert "t-000001" in text and "alice" in text
        assert str(path) in text

    def test_invalid_construction_parameters(self):
        with pytest.raises(ServiceError):
            StateStore(lease_seconds=0.0)

    @pytest.mark.parametrize("fleet", [0, -1, "auto", "3"])
    def test_worker_pool_rejects_a_bad_fleet(self, fleet):
        with pytest.raises(ServiceError, match="wave size"):
            WorkerPool(make_store(), fleet=fleet)


# ----------------------------------------------------------------------
# Torn tails: half a line, reopen, append, load — for the journal owner.
# ----------------------------------------------------------------------
def _statestore(path):
    def open_and_append(n):
        StateStore(path, lease_seconds=10.0).submit({"j": n}, key=f"k{n}", now=float(n))

    def load():
        return sorted(t.key for t in StateStore(path, lease_seconds=10.0).tasks())

    return open_and_append, load, lambda n: f"k{n}"


@pytest.mark.parametrize("owner", [_statestore])
def test_torn_tail_then_append_loads_every_whole_line(owner, tmp_path):
    """Without the repair at open the append fuses with the half line
    into a corrupt line *inside* the file."""
    path = tmp_path / "journal.jsonl"
    open_and_append, load, name = owner(path)
    open_and_append(1)
    whole = path.read_bytes()
    with path.open("a") as fh:
        fh.write('{"op": "claim", "kind": "cache_h')
    open_and_append(2)
    assert load() == [name(1), name(2)]
    assert path.read_bytes().startswith(whole + b"{")  # the half line is gone
    open_and_append(3)  # and a clean reopen cuts nothing
    assert load() == [name(1), name(2), name(3)]


def test_truncate_torn_tail_cuts_only_a_half_line(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"a": 1}\n')
    assert truncate_torn_tail(path) == 0
    # A whole line that only lost its newline is terminated, not cut...
    path.write_text('{"a": 1}\n{"b": 2}')
    assert truncate_torn_tail(path) == 0
    assert path.read_text() == '{"a": 1}\n{"b": 2}\n'
    # ...a half line longer than one read block is cut whole...
    torn = '{"c": "' + "x" * 10_000
    path.write_text('{"a": 1}\n' + torn)
    assert truncate_torn_tail(path) == len(torn)
    assert path.read_text() == '{"a": 1}\n'
    # ...and so is a file that is nothing but a half line.
    path.write_text('{"a"')
    assert truncate_torn_tail(path) == 4 and path.read_text() == ""
    path.write_text("")
    assert truncate_torn_tail(path) == 0
