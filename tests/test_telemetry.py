"""Service-telemetry contract suite (DESIGN §16).

Four layers, each pinned:

* **window algebra** — hypothesis properties of the rollup aggregator:
  window-boundary invariance (totals are independent of window width),
  merge-of-windows == window-of-merged, and deterministic nearest-rank
  percentiles;
* **alerting** — declarative rules with hysteresis fire and clear
  deterministically; the seeded ``worker_crash`` chaos scenario fires
  exactly the crash-rate alert (pinned transition sequence) while the
  fault-free run fires none, and the whole SLO emission is byte-stable;
* **health** — heartbeat-age classification against the lease, surfaced
  through ``StateStore.render_status``;
* **plumbing** — the telemetry sink's store hooks (cache hits, dedups,
  lease expiries, crashes), journal round-trips and the fleet Perfetto
  export with one track per worker.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Tracer, activate, service_track_events
from repro.obs.telemetry import (
    AlertEngine,
    AlertRule,
    TelemetrySink,
    WindowRollup,
    classify_heartbeat_age,
    load_events,
    merge,
    overall,
    percentile,
    rollup,
    run_slo_scenario,
    slo_emission,
    stable_slo_bytes,
    telemetry_path_for,
    window_origin,
    worker_health,
)
from repro.service import StateStore


# ----------------------------------------------------------------------
# Event-stream strategy: arbitrary (not merely well-formed) streams —
# the window algebra must hold regardless of lifecycle discipline.
# ----------------------------------------------------------------------
_KINDS = st.sampled_from(
    [
        "submit",
        "resubmit",
        "claim",
        "start",
        "heartbeat",
        "complete",
        "requeue",
        "cancel",
        "cache_hit",
        "dedup",
        "lease_expiry",
        "worker_crash",
        "phase_work",
    ]
)


@st.composite
def event_streams(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    events = []
    for _ in range(n):
        kind = draw(_KINDS)
        ev = {
            "kind": kind,
            "t": draw(st.integers(0, 63)) * 0.5,
            "task": f"t{draw(st.integers(0, 5))}",
        }
        if kind == "requeue":
            ev["terminal"] = draw(st.booleans())
            ev["expired"] = draw(st.booleans())
        if kind == "phase_work":
            ev["phases"] = {"scf": draw(st.integers(1, 9)) * 0.125}
        events.append(ev)
    events.sort(key=lambda e: e["t"])
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
    @given(events=event_streams(), window=st.sampled_from([0.5, 1.0, 3.0, 7.0]))
    @settings(max_examples=60, deadline=None)
    def test_window_boundary_invariance(self, events, window):
        """Totals must not depend on where window boundaries fall."""
        windows = rollup(events, window)
        counts, qw, ttr, phases = _totals(windows)
        whole = overall(events)
        assert counts == whole.counts
        assert qw == sorted(whole.queue_wait)
        assert ttr == sorted(whole.time_to_result)
        assert phases == pytest.approx(whole.phase_seconds)

    @given(events=event_streams(), window=st.sampled_from([1.0, 2.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_windows_equals_window_of_merged(self, events, window):
        fine = rollup(events, window, horizon=64.0)
        if len(fine) % 2:
            fine = rollup(events, window, horizon=(len(fine) + 1) * window)
        coarse = rollup(events, 2 * window, horizon=len(fine) * window)
        merged = [
            merge(fine[2 * k], fine[2 * k + 1]) for k in range(len(fine) // 2)
        ]
        assert len(merged) == len(coarse)
        for m, c in zip(merged, coarse):
            assert m.as_dict() == c.as_dict()

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
            {"kind": "submit", "t": 0.0, "task": "a"},
            {"kind": "claim", "t": 5.0, "task": "a", "worker": "w0"},
            {"kind": "complete", "t": 9.0, "task": "a", "worker": "w0"},
        ]
        w = rollup(events, 4.0)
        assert [x.queue_wait for x in w] == [[], [5.0], []]
        assert [x.time_to_result for x in w] == [[], [], [9.0]]

    def test_queue_snapshot_and_oldest_age(self):
        events = [
            {"kind": "submit", "t": 1.0, "task": "a"},
            {"kind": "submit", "t": 2.0, "task": "b"},
            {"kind": "claim", "t": 5.0, "task": "b", "worker": "w0"},
        ]
        w0, w1 = rollup(events, 4.0, horizon=8.0)
        assert (w0.waiting_at_end, w0.oldest_waiting_age) == (2, 3.0)
        assert (w1.waiting_at_end, w1.oldest_waiting_age) == (1, 7.0)

    def test_provenance_header_ignored(self):
        events = [
            {"kind": "provenance", "t": -1.0},
            {"kind": "submit", "t": 0.0, "task": "a"},
        ]
        (w,) = rollup(events, 4.0)
        assert w.counts["submitted"] == 1

    def test_window_origin_aligns_epoch_journals(self):
        events = [{"kind": "submit", "t": 1.7e9 + 3.0, "task": "a"}]
        t0 = window_origin(events, 4.0)
        assert t0 % 4.0 == 0.0 and t0 <= 1.7e9 + 3.0
        assert len(rollup(events, 4.0, t0=t0)) == 1

    def test_rollup_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            rollup([], 0.0)


# ----------------------------------------------------------------------
# Alert rules + hysteresis
# ----------------------------------------------------------------------
def _window(index, **counts):
    w = WindowRollup(index=index, start=4.0 * index, end=4.0 * (index + 1))
    w.counts.update(counts)
    return w


class TestAlerts:
    def test_rule_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            AlertRule("bad", "crash_rate", ">=", 0.5)
        with pytest.raises(ReproError):
            AlertRule("bad", "crash_rate", ">", 0.5, fire_after=0)
        with pytest.raises(ReproError):
            AlertEngine(
                [
                    AlertRule("dup", "crash_rate", ">", 0.5),
                    AlertRule("dup", "failure_rate", ">", 0.5),
                ]
            )

    def test_hysteresis_fire_and_clear(self):
        rule = AlertRule(
            "storm", "lease_expiries", ">", 1.0, fire_after=2, clear_after=2
        )
        # breach, breach (fires), breach, healthy, healthy (clears)
        windows = [
            _window(0, lease_expiries=3),
            _window(1, lease_expiries=3),
            _window(2, lease_expiries=3),
            _window(3),
            _window(4),
        ]
        out = AlertEngine([rule]).evaluate(windows)
        assert [(a["action"], a["window"]) for a in out] == [
            ("fired", 1),
            ("cleared", 4),
        ]

    def test_no_refire_while_active(self):
        rule = AlertRule("spike", "crashes", ">", 0.0)
        windows = [_window(i, crashes=1) for i in range(4)]
        out = AlertEngine([rule]).evaluate(windows)
        assert [(a["action"], a["window"]) for a in out] == [("fired", 0)]

    def test_guard_suppresses_and_heals(self):
        rule = AlertRule(
            "floor",
            "cache_hit_ratio",
            "<",
            0.05,
            fire_after=1,
            clear_after=1,
            guard={"cache_lookups": 16.0},
        )
        # ratio is 0 everywhere, but only window 1 has enough lookups.
        windows = [
            _window(0, submitted=2),
            _window(1, submitted=20),
            _window(2, submitted=2),
        ]
        out = AlertEngine([rule]).evaluate(windows)
        assert [(a["action"], a["window"]) for a in out] == [
            ("fired", 1),
            ("cleared", 2),
        ]

    def test_transitions_recorded_into_sink(self):
        sink = TelemetrySink()
        AlertEngine([AlertRule("spike", "crashes", ">", 0.0)]).evaluate(
            [_window(0, crashes=2)], sink=sink
        )
        (ev,) = sink.events
        assert ev["kind"] == "alert" and ev["rule"] == "spike"


# ----------------------------------------------------------------------
# The committed SLO scenario: chaos fires, steady is silent, bytes pin.
# ----------------------------------------------------------------------
class TestSloScenario:
    def test_steady_run_fires_no_alerts(self):
        run = run_slo_scenario(faults=False)
        assert run.alerts == []
        assert run.completed == 8 and run.crashes == 0

    def test_chaos_run_fires_exact_alert_sequence(self):
        run = run_slo_scenario(faults=True)
        assert run.completed == 8  # every crash is recovered
        assert run.crashes == 2
        assert [(a["rule"], a["action"], a["window"]) for a in run.alerts] == [
            ("crash_rate_spike", "fired", 0),
            ("crash_rate_spike", "cleared", 2),
        ]

    def test_chaos_recovery_via_lease_expiry(self):
        run = run_slo_scenario(faults=True)
        whole = overall(run.sink.events, horizon=16.0)
        assert whole.counts["lease_expiries"] == 2
        assert whole.counts["requeued"] == 2
        assert whole.counts["failed"] == 0  # crashes are silent, not fails

    def test_emission_byte_stable(self):
        a = slo_emission(seed=2023, window=4.0)
        b = slo_emission(seed=2023, window=4.0)
        assert stable_slo_bytes(a) == stable_slo_bytes(b)
        # No wall clock is read, so the whole documents agree too.
        assert "timings" not in a
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_emission_round_trips_through_regression_gate(self):
        from repro.obs.bench import emission_for_baseline
        from repro.obs.regress import compare_reports

        baseline = slo_emission(seed=2023, window=4.0)
        fresh = emission_for_baseline(baseline)
        assert compare_reports(fresh, baseline).ok


# ----------------------------------------------------------------------
# Worker health model
# ----------------------------------------------------------------------
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
# Sink plumbing: store hooks, journal round-trip, counters.
# ----------------------------------------------------------------------
class TestSinkPlumbing:
    def test_sidecar_path(self):
        assert str(telemetry_path_for("a/service.jsonl")).endswith(
            "a/service.telemetry.jsonl"
        )

    def test_cache_hit_and_dedup_are_noted(self):
        sink = TelemetrySink()
        store = StateStore(lease_seconds=10.0, telemetry=sink)
        store.submit({"j": 1}, key="k1", now=0.0)
        store.submit({"j": 1}, key="k1", now=1.0)  # same key, still waiting
        kinds = [e["kind"] for e in sink.events]
        assert kinds == ["submit", "dedup"]

    def test_lease_expiry_noted_and_counted(self):
        sink = TelemetrySink()
        store = StateStore(
            lease_seconds=2.0,
            backoff_base=1.0,
            backoff_factor=2.0,
            telemetry=sink,
        )
        store.submit({"j": 1}, key="k1", now=0.0)
        store.claim("w0", limit=1, now=1.0)
        tracer = Tracer()
        with activate(tracer):
            expired = store.expire_leases(now=10.0)
        assert len(expired) == 1
        assert tracer.metrics.counter("service.lease_expiries").value == 1
        by_kind = {e["kind"]: e for e in sink.events}
        assert by_kind["lease_expiry"]["worker"] == "w0"
        assert by_kind["requeue"]["expired"] is True
        # silence, not contact: the dead worker's heartbeat is unchanged
        assert store.worker_heartbeats()["w0"] == 1.0

    def test_replay_does_not_resample(self, tmp_path):
        journal = tmp_path / "service.jsonl"
        store = StateStore(path=journal, lease_seconds=10.0)
        sink = TelemetrySink()
        store.submit({"j": 1}, key="k1", now=0.0)
        reopened = StateStore(path=journal, lease_seconds=10.0, telemetry=sink)
        assert reopened.counts()["waiting"] == 1
        assert sink.events == []

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(path)
        sink.note("worker_crash", 3.0, worker="w0", task="t-000001")
        sink.note("cache_hit", 4.0, task="t-000001", key="k")
        assert load_events(path) == sink.events

    def test_load_events_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "cache_hit", "t": 1.0}\n{oops\n')
        with pytest.raises(ValueError, match=":2"):
            load_events(path)

    def test_load_events_skips_a_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(path)
        sink.note("cache_hit", 4.0, task="t-000001", key="k")
        with path.open("a") as fh:
            fh.write('{"kind": "worker_cr')
        assert load_events(path) == sink.events

    def test_note_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TelemetrySink().note("surprise", 0.0)


# ----------------------------------------------------------------------
# Fleet Perfetto export: one track per worker.
# ----------------------------------------------------------------------
class TestServiceTrackExport:
    def test_one_track_per_worker_plus_queue(self):
        run = run_slo_scenario(faults=True)
        events = service_track_events(run.sink.events)
        metas = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e.get("name") == "thread_name"
        }
        assert metas["service queue"] == 0
        assert {"worker w0", "worker w1"} <= set(metas)
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans and all(e["pid"] == 2 for e in spans)
        outcomes = {e["args"]["outcome"] for e in spans}
        assert "crashed" in outcomes and "completed" in outcomes

    def test_chrome_trace_merges_service_tracks(self):
        run = run_slo_scenario(faults=False)
        from repro.obs import chrome_trace

        doc = json.loads(
            json.dumps(chrome_trace([], telemetry_events=run.sink.events))
        )
        pids = {e.get("pid") for e in doc["traceEvents"] if "pid" in e}
        assert 2 in pids
