"""Auto-tuner contract: determinism, never-slower, round trips, gating.

The properties pinned here are the ones ``make tune-check`` exists for:

* same workload fingerprint + same history ⇒ byte-identical
  :class:`~repro.tune.decision.TunerDecision` (hypothesis-driven);
* the chosen configuration is never predicted *or* measured slower
  than the hand-picked default;
* decisions round-trip exactly through ``as_dict``/``from_dict``, the
  RunReport ``tuner`` block and the ``--history`` decision journal
  (where the next run warm-starts from them);
* a perturbed cost model trips the regression gate on the tuner's own
  ``modeled_seconds`` metrics — the gate provably notices the tuner.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import hydrogen_molecule, water
from repro.config import RunSettings, get_settings
from repro.errors import ServiceError
from repro.tune import (
    DEFAULT_COST_MODEL,
    TunedConfig,
    TunerDecision,
    TuningError,
    WavePlanner,
    append_decision,
    default_config,
    search_space,
    tune,
    tuned_settings,
    warm_start_configs,
    workload_fingerprint,
)

MINIMAL = get_settings("minimal")

# Tuner-owned knob variants: all must map to one workload fingerprint.
_tuned_knobs = st.builds(
    lambda backend, screening, batch: get_settings(
        "minimal", backend=backend, screening_threshold=screening,
    ).with_grids(batch_target_points=batch),
    backend=st.sampled_from(["numpy", "device"]),
    screening=st.sampled_from([0.0, 1e-6]),
    batch=st.sampled_from([64, 100, 300]),
)


# ----------------------------------------------------------------------
# Search space and configs
# ----------------------------------------------------------------------

def test_config_round_trips_and_space_is_canonical():
    space = search_space(MINIMAL)
    assert space == sorted(space, key=TunedConfig.sort_key)
    assert len(space) == len(set(space))
    assert default_config(MINIMAL) in space
    for cfg in space[:10]:
        assert TunedConfig.from_dict(cfg.as_dict()) == cfg


def test_fleet_axis_only_present_when_requested():
    assert {c.fleet_wave for c in search_space(MINIMAL)} == {1}
    assert {c.fleet_wave for c in search_space(MINIMAL, fleet=True)} == {
        1, 2, 4, 8,
    }


def test_apply_rewrites_only_tuner_owned_knobs():
    cfg = TunedConfig(
        backend="device", batch_target_points=100, screening_threshold=1e-6,
    )
    applied = cfg.apply(MINIMAL.with_tuning(mode="auto"))
    assert applied.backend == "device"
    assert applied.grids.batch_target_points == 100
    assert applied.screening_threshold == 1e-6
    assert applied.tuning.mode == "off"
    assert applied.scf == MINIMAL.scf and applied.cpscf == MINIMAL.cpscf


def test_tuned_run_cache_key_equals_hand_picked_key():
    """A tuned run dedups onto the identical hand-picked config."""
    from repro.service import cache_key

    cfg = TunedConfig(backend="device", batch_target_points=100)
    applied = cfg.apply(MINIMAL.with_tuning(mode="auto", budget=7))
    hand_picked = get_settings(
        "minimal", backend="device"
    ).with_grids(batch_target_points=100)
    key = lambda s: cache_key(water(), s, 0, commit="c", seed=1)  # noqa: E731
    assert key(applied) == key(hand_picked)


# ----------------------------------------------------------------------
# Workload fingerprint
# ----------------------------------------------------------------------

@given(s=_tuned_knobs)
@hsettings(max_examples=20, deadline=None)
def test_fingerprint_invariant_under_tuner_owned_knobs(s):
    """One workload, one fingerprint — whatever knobs it arrives with."""
    assert workload_fingerprint(water(), s) == workload_fingerprint(
        water(), MINIMAL
    )


def test_fingerprint_distinct_under_physics_changes():
    base = workload_fingerprint(water(), MINIMAL)
    assert workload_fingerprint(hydrogen_molecule(), MINIMAL) != base
    assert workload_fingerprint(water(), get_settings("light")) != base
    assert workload_fingerprint(water(), MINIMAL, charge=1) != base
    assert (
        workload_fingerprint(water(), MINIMAL.with_scf(max_iterations=7))
        != base
    )


# ----------------------------------------------------------------------
# Decision determinism and the never-slower guarantee
# ----------------------------------------------------------------------

@given(s=_tuned_knobs, ranks=st.sampled_from([2, 4, 8]))
@hsettings(max_examples=10, deadline=None)
def test_model_only_decision_is_byte_identical_and_never_slower(s, ranks):
    """Same inputs ⇒ same bytes; chosen never predicted slower."""
    a = tune(water(), s, n_ranks=ranks, budget=0)
    b = tune(water(), s, n_ranks=ranks, budget=0)
    assert a.stable_bytes() == b.stable_bytes()
    assert a.predicted_speedup >= 1.0
    assert a.measured_speedup >= 1.0


def test_measured_decision_is_byte_identical_across_reruns():
    a = tune(hydrogen_molecule(), MINIMAL, budget=2)
    b = tune(hydrogen_molecule(), MINIMAL, budget=2)
    assert a.stable_bytes() == b.stable_bytes()
    # The measured stage really ran: default + short list carry costs.
    assert a.default_outcome.measured_seconds is not None
    assert a.chosen_outcome.measured_seconds is not None


def test_measured_decision_never_slower_than_default():
    d = tune(water(), MINIMAL, budget=3)
    assert d.predicted_speedup >= 1.0
    assert d.measured_speedup >= 1.0
    assert (
        d.chosen_outcome.predicted_seconds
        <= d.default_outcome.predicted_seconds
    )


def test_tuned_settings_applies_winner_with_tuning_off():
    effective, decision = tuned_settings(
        hydrogen_molecule(), MINIMAL.with_tuning(mode="auto"), budget=1
    )
    assert effective.tuning.mode == "off"
    assert effective.backend == decision.chosen.backend
    assert (
        effective.grids.batch_target_points
        == decision.chosen.batch_target_points
    )


def test_tune_rejects_bad_budget_and_ranks():
    with pytest.raises(TuningError):
        tune(water(), MINIMAL, budget=-1)
    with pytest.raises(TuningError):
        tune(water(), MINIMAL, n_ranks=0)


# ----------------------------------------------------------------------
# Round trips: dict, artifact, RunReport, history
# ----------------------------------------------------------------------

def test_decision_round_trips_through_dict_and_artifact(tmp_path):
    d = tune(hydrogen_molecule(), MINIMAL, budget=1)
    clone = TunerDecision.from_dict(d.as_dict())
    assert clone.stable_bytes() == d.stable_bytes()
    path = d.write(tmp_path / "decision.json")
    loaded = TunerDecision.load(path)
    assert loaded.stable_bytes() == d.stable_bytes()
    assert loaded.chosen == d.chosen and loaded.default == d.default
    with pytest.raises(TuningError):
        TunerDecision.load(tmp_path / "missing.json")


def test_decision_round_trips_through_run_report(tmp_path):
    from repro.obs import RunReport

    d = tune(hydrogen_molecule(), MINIMAL, budget=1)
    report = RunReport.from_run(
        label="tuned:test", timer=None, tuner={"decision": d.as_dict()}
    )
    path = report.write(tmp_path / "report.json")
    doc = json.loads(path.read_text())
    recovered = TunerDecision.from_dict(doc["extra"]["tuner"]["decision"])
    assert recovered.stable_bytes() == d.stable_bytes()


def test_decision_round_trips_through_history_jsonl(tmp_path):
    hist = tmp_path / "BENCH_history.jsonl"
    d = tune(water(), MINIMAL, budget=0, history_path=hist)
    append_decision(hist, d)
    line = hist.read_text().strip().splitlines()[-1]
    entry = json.loads(line)
    assert entry["label"] == "tuner"
    recovered = TunerDecision.from_dict(entry["emission"])
    assert recovered.stable_bytes() == d.stable_bytes()


# ----------------------------------------------------------------------
# Warm start: the loop actually closes
# ----------------------------------------------------------------------

def test_history_warm_starts_the_next_decision(tmp_path):
    hist = tmp_path / "BENCH_history.jsonl"
    first = tune(water(), MINIMAL, budget=0, history_path=hist)
    assert not first.warm_started
    append_decision(hist, first)
    second = tune(water(), MINIMAL, budget=0, history_path=hist)
    assert second.warm_started
    assert first.chosen in [c.config for c in second.candidates]
    assert warm_start_configs(hist, first.fingerprint) == [first.chosen]
    # A different workload's decision never leaks in.
    assert warm_start_configs(
        hist, workload_fingerprint(hydrogen_molecule(), MINIMAL)
    ) == []


def test_warm_start_can_be_disabled(tmp_path):
    hist = tmp_path / "BENCH_history.jsonl"
    append_decision(hist, tune(water(), MINIMAL, budget=0))
    d = tune(
        water(), MINIMAL.with_tuning(warm_start=False),
        budget=0, history_path=hist,
    )
    assert not d.warm_started


def test_warm_start_skips_decisions_naming_a_retired_backend(tmp_path):
    """A history written when ``batched`` was a registry name must not
    break (or steer) the next decision."""
    hist = tmp_path / "BENCH_history.jsonl"
    first = tune(water(), MINIMAL, budget=0)
    doc = first.as_dict()
    doc["chosen"] = dict(doc["chosen"], backend="batched", cache_limit=0)
    from repro.obs.analyze.history import append_entry

    append_entry(hist, doc, label="tuner", recorded_at="t", provenance={})
    # An entry that is not a decision at all (a pre-PR-20 bench-check
    # emission filed under the same label) is skipped the same way.
    append_entry(hist, {"workloads": {"water": {"decision": first.as_dict()}}},
                 label="tuner", recorded_at="t", provenance={})
    assert warm_start_configs(hist, first.fingerprint) == []
    second = tune(water(), MINIMAL, budget=0, history_path=hist)
    assert not second.warm_started and second.chosen == first.chosen


# ----------------------------------------------------------------------
# Measured-stage pricing
# ----------------------------------------------------------------------

def test_price_profile_miss_fraction_is_per_block_lookup():
    """Misses are block-level, so the evaluated share is misses over
    block lookups (hits + misses) — not over the phase-level `calls`
    (the committed baseline: 32 / 512 = 0.0625, not 32 / 48)."""
    from repro.runtime import HPC2_AMD
    from repro.tune.costmodel import WorkloadInputs, predict_cost, price_profile

    cfg = default_config(MINIMAL)
    prediction = predict_cost(WorkloadInputs(water(), MINIMAL), cfg, HPC2_AMD, 4)
    model = DEFAULT_COST_MODEL
    profile = {
        "phases": {
            "Sumup": {"calls": 8, "elements": 400_000},
            "H": {"calls": 8, "elements": 400_000},
            "basis": {"calls": 32, "elements": 200_000},
        },
        "cache": {"hits": 480, "misses": 32},
        "device": {},
    }
    elements, calls = 1_000_000.0, 48.0
    kernel = (
        elements * model.host_element_seconds + calls * model.host_call_seconds
    ) / 4.0 * prediction.imbalance
    evaluation = elements * (32 / 512) * model.eval_element_seconds / 4.0
    assert price_profile(profile, cfg, prediction, 4) == pytest.approx(
        kernel
        + evaluation
        + prediction.screen_seconds
        + prediction.comm_seconds
        + prediction.fleet_seconds,
        rel=1e-12,
    )
    # All-miss and no-cache profiles price the two ends of the range.
    cold = dict(profile, cache={"hits": 0, "misses": 512})
    assert price_profile(cold, cfg, prediction, 4) > price_profile(
        profile, cfg, prediction, 4
    )
    no_cache = dict(profile, cache={})
    assert price_profile(no_cache, cfg, prediction, 4) == pytest.approx(
        kernel + prediction.total_seconds - prediction.kernel_seconds
    )


# ----------------------------------------------------------------------
# The gate notices the tuner
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tuner_baseline(tuner_emission_pair):
    """One unperturbed emission, read-only, shared by the gate tests
    (and, through the session fixture, with tests/test_bench_gate.py)."""
    return tuner_emission_pair[0]


def test_perturbed_cost_model_fails_the_gate_naming_the_tuner(tuner_baseline):
    """make tune-check goes red when the cost model changes."""
    from repro.obs.bench import tuner_emission
    from repro.obs.regress import compare_reports

    baseline = tuner_baseline
    fresh = tuner_emission(
        budget=1, cost_model=DEFAULT_COST_MODEL.perturbed(1.5)
    )
    report = compare_reports(fresh, baseline)
    assert not report.ok
    offenders = [d.key for d in report.offenders]
    assert any(
        "workloads" in key and "modeled_seconds" in key for key in offenders
    )


def test_unperturbed_tuner_emission_passes_its_own_gate(tuner_emission_pair):
    from repro.obs.regress import compare_reports

    first, rerun = tuner_emission_pair
    assert compare_reports(rerun, first).ok


def test_tuner_emission_dispatches_from_baseline_tag(tuner_emission_pair):
    baseline, fresh = tuner_emission_pair  # fresh = emission_for_baseline(...)
    assert fresh["benchmark"] == "tuner"
    assert fresh["budget"] == baseline["budget"]
    assert sorted(fresh["workloads"]) == sorted(baseline["workloads"])


# ----------------------------------------------------------------------
# Fleet wave planner
# ----------------------------------------------------------------------

def test_wave_planner_tunes_and_caches_per_fingerprint():
    from repro.service import JobRequest, submit_job
    from repro.service.statestore import StateStore

    store = StateStore(lease_seconds=5.0)
    for i in range(5):
        submit_job(
            store, JobRequest(hydrogen_molecule(), MINIMAL, seed=i), now=0.0
        )
    planner = WavePlanner()
    wave = planner.plan(store)
    assert 1 <= wave <= 5
    assert planner.n_decisions == 1
    assert planner.plan(store) == wave  # cached, no re-tune
    assert planner.n_decisions == 1


def test_wave_planner_defaults_on_unpriceable_payloads():
    from repro.service.statestore import StateStore

    store = StateStore(lease_seconds=5.0)
    store.submit({"kind": "noop"}, key="k1", now=0.0)
    assert WavePlanner().plan(store) == 1
    assert WavePlanner().plan(StateStore(lease_seconds=5.0)) == 1


def test_worker_pool_auto_fleet_drains_byte_identically():
    from repro.service import JobRequest, submit_job
    from repro.service.statestore import StateStore
    from repro.service.worker import WorkerPool, stable_result_bytes

    def run(fleet):
        store = StateStore(lease_seconds=30.0)
        keys = [
            submit_job(
                store, JobRequest(hydrogen_molecule(), MINIMAL, seed=i),
                now=0.0,
            ).task.key
            for i in range(4)
        ]
        pool = WorkerPool(store, n_workers=1, fleet=fleet)
        report = pool.run_until_idle()
        assert report.idle
        return {k: stable_result_bytes(store.result_for_key(k)) for k in keys}

    assert run(None) == run("auto")


def test_worker_pool_rejects_unknown_fleet_mode():
    from repro.service.statestore import StateStore
    from repro.service.worker import WorkerPool

    with pytest.raises(ServiceError):
        WorkerPool(StateStore(lease_seconds=5.0), fleet="bogus")


# ----------------------------------------------------------------------
# Docstring audit extension
# ----------------------------------------------------------------------

def test_docstring_audit_covers_tune_and_reports_all_offenders():
    from repro.testing.docs import AUDITED_MODULES, missing_docstrings

    assert "repro.tune" in AUDITED_MODULES
    assert "repro.tune.tuner" in AUDITED_MODULES
    assert missing_docstrings(["repro.tune", "repro.tune.space"]) == []
    # Broken modules are recorded as offenders — and the audit keeps
    # going, reporting every later module in the same run.
    offenders = missing_docstrings(
        ["repro.no_such_module", "repro.also_missing", "repro.tune"]
    )
    assert any("repro.no_such_module" in o for o in offenders)
    assert any("repro.also_missing" in o for o in offenders)
