"""The statestore journal's readers (:mod:`repro.service.slo`, DESIGN §12.8).

Four layers, each pinned on journal events (``op`` / ``now`` /
``task_id``) — the only record a drain leaves:

* **window algebra** — hypothesis properties of the rollup: totals do
  not depend on where window boundaries fall, and percentiles are
  deterministic nearest-rank samples;
* **the chaos drain** — a file-backed 8-job drain under a seeded
  two-crash ``FaultPlan``, rolled up from its journal with exact
  counts, and its journal and ``repro status`` bytes pinned to the
  values recorded before the telemetry sidecar was deleted;
* **health** — heartbeat-age classification against the lease, surfaced
  through ``StateStore.render_status``;
* **plumbing** — what the journal does and does not record, the
  non-owning reader, ``repro slo --store`` and the fleet Perfetto export
  with one track per worker.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import chrome_trace
from repro.service.faults import FaultPlan, ScheduledFault
from repro.service import StateStore, WorkerPool
from repro.service.slo import (
    classify_heartbeat_age,
    journal_events,
    percentile,
    rollup,
    window_origin,
    worker_health,
    worker_spans,
)
from repro.errors import ServiceError


# ----------------------------------------------------------------------
# Journal-stream strategy: arbitrary (not merely well-formed) streams —
# the window algebra must hold regardless of lifecycle discipline.
# ----------------------------------------------------------------------
_OPS = st.sampled_from(
    [
        "submit",
        "resubmit",
        "claim",
        "start",
        "heartbeat",
        "complete",
        "requeue",
        "set_quota",
    ]
)


@st.composite
def journal_streams(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    events = []
    for _ in range(n):
        op = draw(_OPS)
        if op == "set_quota":  # a line without a timestamp (a retired op)
            events.append({"op": op, "client": "c", "max_active": 1})
            continue
        ev = {
            "op": op,
            "now": draw(st.integers(0, 63)) * 0.5,
            "task_id": f"t{draw(st.integers(0, 5))}",
        }
        if op == "requeue":
            ev["terminal"] = draw(st.booleans())
            ev["expired"] = draw(st.booleans())
        if op == "complete" and draw(st.booleans()):
            ev["result"] = {
                "timings": {"phase_seconds": {"scf": draw(st.integers(1, 9)) * 0.125}}
            }
        events.append(ev)
    events.sort(key=lambda e: e.get("now", 0.0))
    return events


def _totals(windows):
    counts = {}
    qw, ttr, phases = [], [], {}
    for w in windows:
        for k, v in w.counts.items():
            counts[k] = counts.get(k, 0) + v
        qw.extend(w.queue_wait)
        ttr.extend(w.time_to_result)
        for k, v in w.phase_seconds.items():
            phases[k] = phases.get(k, 0.0) + v
    return counts, sorted(qw), sorted(ttr), phases


class TestWindowAlgebra:
    @given(events=journal_streams(), window=st.sampled_from([0.5, 1.0, 3.0, 7.0]))
    @settings(max_examples=60, deadline=None)
    def test_window_boundary_invariance(self, events, window):
        """Totals must not depend on where window boundaries fall."""
        counts, qw, ttr, phases = _totals(rollup(events, window))
        (whole,) = rollup(events, 64.0)  # every stamp is < 32
        assert counts == whole.counts
        assert qw == whole.queue_wait
        assert ttr == whole.time_to_result
        assert phases == pytest.approx(whole.phase_seconds)

    @given(
        samples=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        q=st.sampled_from([1, 50, 90, 99, 100]),
    )
    @settings(max_examples=80, deadline=None)
    def test_percentile_is_an_observed_sample(self, samples, q):
        assert percentile(samples, q) in samples

    @given(samples=st.permutations([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]))
    @settings(max_examples=20, deadline=None)
    def test_percentile_order_invariant(self, samples):
        assert [percentile(samples, q) for q in (50, 90, 99)] == [3.0, 9.0, 9.0]

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_attributed_to_resolving_window(self):
        events = [
            {"op": "submit", "now": 0.0, "task_id": "a"},
            {"op": "claim", "now": 5.0, "task_id": "a", "worker": "w0"},
            {"op": "complete", "now": 9.0, "task_id": "a", "worker": "w0"},
        ]
        w = rollup(events, 4.0)
        assert [x.queue_wait for x in w] == [[], [5.0], []]
        assert [x.time_to_result for x in w] == [[], [], [9.0]]

    def test_queue_snapshot_and_oldest_age(self):
        events = [
            {"op": "submit", "now": 1.0, "task_id": "a"},
            {"op": "submit", "now": 2.0, "task_id": "b"},
            {"op": "claim", "now": 5.0, "task_id": "b", "worker": "w0"},
        ]
        w0, w1 = rollup(events, 4.0)
        assert (w0.waiting_at_end, w0.oldest_waiting_age) == (2, 3.0)
        assert (w1.waiting_at_end, w1.oldest_waiting_age) == (1, 7.0)

    def test_set_quota_line_ignored(self):
        events = [
            {"op": "set_quota", "client": "c", "max_active": 2},
            {"op": "submit", "now": 5.0, "task_id": "a"},
        ]
        assert window_origin(events, 4.0) == 4.0
        (w,) = rollup(events, 4.0, t0=4.0)
        assert w.counts["submitted"] == 1

    def test_window_origin_aligns_epoch_journals(self):
        events = [{"op": "submit", "now": 1.7e9 + 3.0, "task_id": "a"}]
        t0 = window_origin(events, 4.0)
        assert t0 % 4.0 == 0.0 and t0 <= 1.7e9 + 3.0
        assert len(rollup(events, 4.0, t0=t0)) == 1

    def test_rollup_rejects_nonpositive_window(self):
        for window in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                rollup([], window)


# ----------------------------------------------------------------------
# The chaos drain: 8 jobs, 2 workers, w0's first two claims crash.
# ----------------------------------------------------------------------
def _runner(task):
    i = int(task.payload["index"])
    return {
        "index": i,
        "timings": {"phase_seconds": {"scf": 0.5 + i, "cpscf": 0.25 * i}},
    }


def chaos_drain(path, max_steps=10_000):
    """A file-backed 8-job drain under the seeded two-crash FaultPlan."""
    store = StateStore(path, lease_seconds=2.0)
    for i in range(8):
        store.submit({"index": i}, key=f"job-{i}", client=f"client-{i % 2}",
                     priority=i % 2, now=0.0)
    plan = FaultPlan(seed=2023, schedule=[
        ScheduledFault(call_index=k, site="worker:w0")
        for k in (0, 1)
    ])
    pool = WorkerPool(store, n_workers=2, runner=_runner, fault_plan=plan,
                      start_time=0.0, dt=1.0)
    report = pool.run_until_idle(max_steps=max_steps)
    return store, pool, report


class TestSloScenario:
    def test_chaos_recovery_via_lease_expiry(self, tmp_path):
        path = tmp_path / "service.jsonl"
        _, _, report = chaos_drain(path)
        assert (report.completed, report.crashes) == (8, 2)
        (whole,) = rollup(journal_events(path), 64.0)
        assert whole.counts["completed"] == 8
        assert whole.counts["claimed"] == 10
        assert whole.counts["lease_expiries"] == 2  # each crash, once expired
        assert whole.counts["requeued"] == 2
        assert whole.counts["failed"] == 0  # crashes are silent, not fails
        assert whole.queue_wait == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
        assert whole.time_to_result == [1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 6.0]
        assert whole.phase_seconds == {"scf": 32.0, "cpscf": 7.0}
        w0, w1 = rollup(journal_events(path), 4.0)
        assert [w.counts["lease_expiries"] for w in (w0, w1)] == [0, 2]
        assert w1.metric("expiry_rate") == 0.5

    def test_journal_bytes_pinned(self, tmp_path):
        """Recorded with the telemetry sink still attached to the store:
        deleting it changed no byte of the journal."""
        path = tmp_path / "service.jsonl"
        chaos_drain(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4f5268a61478d691a3cd557969e84a3fe7414575931c0b2239253b94adc61e4d"
        )


# ----------------------------------------------------------------------
# Worker health model
# ----------------------------------------------------------------------
#: ``render_status`` of the chaos drain stopped after two steps and read
#: three seconds later, then of the whole drain — recorded before the
#: sidecar was deleted, with the journal path replaced by ``<journal>``.
#: The text is compared line by line without trailing blanks (the table
#: pads its last column); the SHA-256 pins the exact bytes.
MID_DRAIN_STATUS = """\
statestore: 8 task(s), 2 cached result(s) — journal <journal>
  waiting=4  claimed=2  complete=2
  oldest waiting task: 5s

tasks
task     | status   | prio | attempts | client   | worker | key
---------+----------+------+----------+----------+--------+------
t-000001 | waiting  | 0    | 0/4      | client-0 | -      | job-0
t-000002 | claimed  | 1    | 1/4      | client-1 | w0     | job-1
t-000003 | waiting  | 0    | 0/4      | client-0 | -      | job-2
t-000004 | complete | 1    | 1/4      | client-1 | -      | job-3
t-000005 | waiting  | 0    | 0/4      | client-0 | -      | job-4
t-000006 | claimed  | 1    | 1/4      | client-1 | w0     | job-5
t-000007 | waiting  | 0    | 0/4      | client-0 | -      | job-6
t-000008 | complete | 1    | 1/4      | client-1 | -      | job-7

workers
worker | last heartbeat | age | state    | live tasks
-------+----------------+-----+----------+-----------
w0     | t=2            | 3s  | degraded | 2
w1     | t=2            | 3s  | idle     | 0
"""
MID_DRAIN_SHA256 = "45e0e01cf4da6f12efa0e89271a3998822090b5ef08fe05d89991dd4fac902c7"

DRAINED_STATUS = """\
statestore: 8 task(s), 8 cached result(s) — journal <journal>
  complete=8

tasks
task     | status   | prio | attempts | client   | worker | key
---------+----------+------+----------+----------+--------+------
t-000001 | complete | 0    | 1/4      | client-0 | -      | job-0
t-000002 | complete | 1    | 2/4      | client-1 | -      | job-1
t-000003 | complete | 0    | 1/4      | client-0 | -      | job-2
t-000004 | complete | 1    | 1/4      | client-1 | -      | job-3
t-000005 | complete | 0    | 1/4      | client-0 | -      | job-4
t-000006 | complete | 1    | 2/4      | client-1 | -      | job-5
t-000007 | complete | 0    | 1/4      | client-0 | -      | job-6
t-000008 | complete | 1    | 1/4      | client-1 | -      | job-7

workers
worker | last heartbeat | age | state | live tasks
-------+----------------+-----+-------+-----------
w0     | t=6            | 0s  | idle  | 0
w1     | t=4            | 2s  | idle  | 0
"""
DRAINED_SHA256 = "9cd6ed348afec738532897b2b07a66b1a751066aeb04163c892190e9f7a15ec9"


class TestHealth:
    @pytest.mark.parametrize(
        "age,expected",
        [(0.0, "live"), (2.0, "live"), (3.0, "degraded"), (4.5, "stuck")],
    )
    def test_classification_against_lease(self, age, expected):
        assert classify_heartbeat_age(age, 2.0) == expected

    def test_idle_without_live_task(self):
        assert classify_heartbeat_age(99.0, 2.0, holds_live_task=False) == "idle"

    def test_worker_health_sorted_and_counted(self):
        rows = worker_health(
            {"w1": 5.0, "w0": 9.0},
            {"w0": 1, "w1": 1},
            now=10.0,
            lease_seconds=2.0,
        )
        assert [(r.worker, r.state) for r in rows] == [
            ("w0", "live"),
            ("w1", "stuck"),
        ]

    def test_render_status_surfaces_health_and_queue_age(self):
        store = StateStore(lease_seconds=10.0)
        store.submit({"j": 1}, key="k1", now=0.0)
        store.submit({"j": 2}, key="k2", now=0.0)
        (task,) = store.claim("w0", limit=1, now=1.0)
        text = store.render_status(now=4.0)
        assert "oldest waiting task: 4s" in text
        assert "w0" in text and "live" in text

    @pytest.mark.parametrize("max_steps,later,expected,sha256", [
        (2, 3.0, MID_DRAIN_STATUS, MID_DRAIN_SHA256),
        (10_000, 0.0, DRAINED_STATUS, DRAINED_SHA256),
    ], ids=["mid-drain", "drained"])
    def test_render_status_bytes_of_the_chaos_drain(
        self, tmp_path, max_steps, later, expected, sha256
    ):
        path = tmp_path / "service.jsonl"
        store, pool, _ = chaos_drain(path, max_steps=max_steps)
        text = store.render_status(now=pool.now + later)
        text = text.replace(str(path), "<journal>")
        assert [line.rstrip() for line in text.splitlines()] == expected.splitlines()
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_store_heartbeat_bookkeeping(self):
        store = StateStore(lease_seconds=10.0)
        store.submit({"j": 1}, key="k1", now=0.0)
        (task,) = store.claim("w0", limit=1, now=1.0)
        store.start(task.task_id, "w0", now=2.0)
        store.heartbeat(task.task_id, "w0", now=3.5)
        assert store.worker_heartbeats() == {"w0": 3.5}
        # a fail is worker contact; a lease expiry is worker silence
        store.fail(task.task_id, "w0", "boom", now=4.0)
        assert store.worker_heartbeats() == {"w0": 4.0}

    def test_oldest_waiting_age(self):
        store = StateStore(lease_seconds=10.0)
        assert store.oldest_waiting_age(now=5.0) == 0.0
        store.submit({"j": 1}, key="k1", now=1.0)
        assert store.oldest_waiting_age(now=5.0) == 4.0


# ----------------------------------------------------------------------
# Journal plumbing: what it records, the reader, `repro slo --store`.
# ----------------------------------------------------------------------
class TestJournalPlumbing:
    def test_cache_hit_and_dedup_write_nothing(self, tmp_path):
        path = tmp_path / "service.jsonl"
        store = StateStore(path, lease_seconds=10.0)
        store.submit({"j": 1}, key="k1", now=0.0)
        store.submit({"j": 2}, key="k2", now=0.0)
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"ok": True}, now=2.0)
        before = path.read_bytes()
        assert store.submit({"j": 1}, key="k1", now=3.0).cache_hit
        assert store.submit({"j": 2}, key="k2", now=3.0).deduplicated
        assert path.read_bytes() == before

    def test_lease_expiry_journaled_and_counted(self, tmp_path):
        path = tmp_path / "service.jsonl"
        store = StateStore(path, lease_seconds=2.0)
        store.submit({"j": 1}, key="k1", now=0.0)
        store.claim("w0", limit=1, now=1.0)
        expired = store.expire_leases(now=10.0)
        assert len(expired) == 1
        last = journal_events(path)[-1]
        assert (last["op"], last["expired"], last["worker"]) == ("requeue", True, "w0")
        (w,) = rollup(journal_events(path), 16.0)
        assert (w.counts["lease_expiries"], w.counts["failed"]) == (1, 0)
        # silence, not contact: the dead worker's heartbeat is unchanged
        assert store.worker_heartbeats()["w0"] == 1.0

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "service.jsonl"
        store = StateStore(path, lease_seconds=10.0)
        store.submit({"j": 1}, key="k1", now=0.0)
        store.claim("w0", now=1.0)
        events = journal_events(path)
        assert [e["op"] for e in events] == ["submit", "claim"]
        assert StateStore(path).tasks()[0].key == "k1"

    def test_journal_events_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "service.jsonl"
        path.write_text('{"op": "submit", "now": 1.0}\n{oops\n')
        with pytest.raises(ServiceError, match=":2"):
            journal_events(path)

    def test_journal_events_skips_a_torn_tail_without_cutting_it(self, tmp_path):
        """A reader beside a live ``serve`` must not truncate its journal."""
        path = tmp_path / "service.jsonl"
        StateStore(path).submit({"j": 1}, key="k1", now=0.0)
        with path.open("a") as fh:
            fh.write('{"op": "cla')
        before = path.read_bytes()
        assert [e["op"] for e in journal_events(path)] == ["submit"]
        assert path.read_bytes() == before

    def test_cli_slo_reads_the_store_journal(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "service.jsonl"
        chaos_drain(path)
        before = path.read_bytes()
        assert main(["slo", "--store", str(path), "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert "44 event(s), 2 window(s) at 4s" in out
        assert "expiry%" in out and "hit%" not in out
        assert path.read_bytes() == before

    def test_cli_slo_missing_journal_exits_2_and_creates_nothing(self, tmp_path):
        from repro.cli import main

        assert main(["slo", "--store", str(tmp_path / "none.jsonl")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_cli_serve_writes_no_sidecar_and_traces_only_its_drain(self, tmp_path):
        """An earlier drain's claims are in the journal but not the trace."""
        from repro.cli import main

        path = tmp_path / "service.jsonl"
        chaos_drain(path)
        trace = tmp_path / "trace.json"
        assert main(["serve", "--store", str(path), "--trace", str(trace)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "service.jsonl", "trace.json",
        ]
        doc = json.loads(trace.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []


# ----------------------------------------------------------------------
# Fleet Perfetto export: one track per worker, one span per claim.
# ----------------------------------------------------------------------
class TestServiceTrackExport:
    def test_one_track_per_worker(self, tmp_path):
        path = tmp_path / "service.jsonl"
        chaos_drain(path)
        spans = worker_spans(journal_events(path))
        assert len(spans) == 10  # one per claim
        by_outcome = {}
        for sp in spans:
            by_outcome.setdefault(sp.attrs["outcome"], []).append(sp)
        assert sorted((k, len(v)) for k, v in by_outcome.items()) == [
            ("completed", 8), ("expired", 2),
        ]
        # a crashed claim runs until its lease expired, not 0 s
        assert {(sp.start, sp.end) for sp in by_outcome["expired"]} == {
            (1.0, 4.0), (2.0, 5.0),
        }
        assert {sp.attrs["worker"] for sp in by_outcome["expired"]} == {"w0"}

    def test_chrome_trace_merges_service_tracks(self, tmp_path):
        path = tmp_path / "service.jsonl"
        chaos_drain(path)
        doc = json.loads(json.dumps(chrome_trace(worker_spans(journal_events(path)))))
        metas = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert metas == {"worker w0": 1, "worker w1": 2}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["outcome"] for e in spans} == {"completed", "expired"}
        assert {e["cat"] for e in spans} == {"service"}
        # a stub task completes within its claim step; a crash waits out the lease
        assert sorted({e["dur"] for e in spans}) == [0.0, 3e6]
