"""Self-tests of the benchmark harness.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run with
``python -m pytest benchmarks/e2e/test_harness.py``.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as harness  # noqa: E402
from spans import Recorder, Span, allowed_percentile, covered, median, percentile  # noqa: E402
from workloads import MOVES, OP_ALIASES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer metrics whose percentile needs more samples than a smoke run has.
NEEDS_FULL_SIZE = {"service.submit_ms_p95", "service.cache_hit_ms_p95", "dft.hartree.ms_p75"}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def recorder_of(*spans) -> Recorder:
    recorder = Recorder("test")
    recorder.spans = [Span(*s) for s in spans]
    return recorder


def test_self_time_subtracts_nested_children_once():
    recorder = recorder_of(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),  # a grandchild takes nothing more from root
        ("b", 6.0, 9.0, 0),
    )
    assert recorder.self_times() == pytest.approx([4.0, 2.0, 1.0, 3.0])
    assert recorder.self_total("a") == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    recorder = recorder_of(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        ("c", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    )
    assert recorder.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered([(1, 5), (3, 7), (9, 12)], 0, 10) == pytest.approx(7.0)


def test_layer_shares_use_longest_prefix_and_only_the_given_roots():
    recorder = recorder_of(
        ("solve", 0.0, 10.0, None),
        ("dft.scf.cycle", 0.0, 10.0, 0),
        ("dft.hartree.solve", 1.0, 7.0, 1),
        ("sampling", 10.0, 20.0, None),
        ("dft.hartree.solve", 10.0, 20.0, 3),
    )
    seconds = recorder.layer_self_seconds(("dft", "dft.scf", "dft.hartree"), recorder.spans[:1])
    assert seconds == pytest.approx({"dft": 0.0, "dft.scf": 4.0, "dft.hartree": 6.0})


def test_recorder_nests_and_wraps_instances():
    class Layer:
        def work(self, x):
            return x + 1

    recorder, layer, other = Recorder("test"), Layer(), Layer()
    recorder.wrap(layer, "work", "layer.work")
    with recorder.span("outer"):
        assert layer.work(1) == 2
        assert other.work(1) == 2  # only the wrapped instance is spanned
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", None), ("layer.work", 0)]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_rule():
    assert allowed_percentile(20) == 50
    assert allowed_percentile(67) == 85
    assert allowed_percentile(300) == 96
    samples = [float(i) for i in range(67)]
    assert percentile(samples, 85) == pytest.approx(0.85 * 66)
    with pytest.raises(ValueError):
        percentile(samples, 90)
    with pytest.raises(ValueError):
        percentile(samples[:20], 51)
    assert median([3.0, 1.0, 2.0, 10.0]) == pytest.approx(2.5)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60 and isinstance(BENCHMARK["run_seconds"], int)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_and_slots_agree_with_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    slots = {m["name"] for m in BENCHMARK["end_to_end"]} - {
        "setup_s", "time_to_solution_s", "peak_rss_mb"
    }
    for workload in WORKLOADS:
        assert set(OP_ALIASES[workload]) == slots


def test_every_per_layer_metric_names_end_to_end_metrics_that_exist():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["per_layer"]:
        prefixes = [p for p in MOVES if metric["name"].startswith(p)]
        assert prefixes, f"{metric['name']} has no entry in MOVES"
        moved = MOVES[max(prefixes, key=len)]
        assert moved and set(moved) <= end_to_end, metric["name"]


# ----------------------------------------------------------------------
# A 2-atom smoke of every workload's code path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in WORKLOADS:
        start = time.perf_counter()
        docs = [
            harness.run_child(workload, 5, 0.0, trace, ["--smoke"]) for trace in (0, 1)
        ]
        runs[workload] = (docs, time.perf_counter() - start)
    return runs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_of_each_workload(smoke_runs, workload):
    (untraced, traced), seconds = smoke_runs[workload]
    assert seconds < 10.0
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for doc in (untraced, traced):
        assert doc["failed"] == 0 and doc["attempted"] >= 1, doc["failures"]
        assert set(doc["end_to_end"]) == end_to_end
        assert all(v > 0.0 for v in doc["end_to_end"].values())
    assert untraced["per_layer"] == {}
    assert traced["per_layer"]["trace.coverage_frac"] >= 0.95


def test_per_layer_metrics_are_the_declared_ones(smoke_runs):
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    emitted = set()
    for (_, traced), _ in smoke_runs.values():
        emitted |= set(traced["per_layer"])
    assert emitted <= declared, sorted(emitted - declared)
    assert declared - emitted <= NEEDS_FULL_SIZE, sorted(declared - emitted)
