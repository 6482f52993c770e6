"""The counter/model gate is alive without a clock, for every emission
kind behind a ``BENCH_*.json``; and a torn journal tail ends in a
defined state for the journal's owner."""

import copy
import json

import pytest

from repro.errors import ExperimentError
from repro.obs.bench import (
    backend_emission,
    emission_for_baseline,
    sparse_emission,
)
from repro.obs.regress import Band, compare_reports, default_band, flatten
from repro.service.statestore import StateStore
from repro.utils.journal import truncate_torn_tail

#: The smallest run of each kind that still exercises its counters.
EMISSIONS = {
    "backends": lambda: backend_emission("minimal", 1),
    "sparse": lambda: sparse_emission(4, 1),
}


@pytest.fixture(scope="module", params=sorted(EMISSIONS))
def runs(request):
    """(kind, one emission, the gate's own re-run of it) — built once."""
    first = EMISSIONS[request.param]()
    return request.param, first, emission_for_baseline(first)


def _walk(node, path=()):
    """Every (path, value) of a JSON document, dicts and lists alike."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, path + (i,))


def _a_counter(doc):
    """(gated key, holding dict, leaf name) of one nested exact-band leaf."""
    gated = flatten(doc)
    for path, value in _walk(doc):
        key = ".".join(map(str, path))
        if len(path) > 1 and gated.get(key) and default_band(key).kind == "exact":
            holder = doc
            for p in path[:-1]:
                holder = holder[p]
            return key, holder, path[-1]
    raise AssertionError("no counter in the emission")


class TestEveryEmissionKind:
    def test_two_runs_are_identical_bytes_without_stable_view(self, runs):
        _, first, second = runs
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_no_clock_read_at_any_depth(self, runs):
        _, doc, _ = runs
        for path, _ in _walk(doc):
            key = path[-1] if path else ""
            if not isinstance(key, str):
                continue
            assert "wall" not in key and key != "timings", path
            if "seconds" in key:
                assert key == "modeled_seconds", path

    def test_gate_passes_its_own_rerun_and_compares_something(self, runs):
        _, first, second = runs
        report = compare_reports(second, first)
        assert report.ok, report.render()
        assert sum(d.band.kind != "ignore" for d in report.deltas) > 10

    def test_perturbed_counter_fails_naming_the_metric(self, runs):
        _, first, second = runs
        fresh = copy.deepcopy(second)
        key, holder, leaf = _a_counter(fresh)
        holder[leaf] += 1
        report = compare_reports(fresh, first)
        assert [d.key for d in report.offenders] == [key]
        assert key in report.render() and "FAIL" in report.render()

    def test_vanished_leaf_fails_naming_the_metric(self, runs):
        _, first, second = runs
        fresh = copy.deepcopy(second)
        key, holder, leaf = _a_counter(fresh)
        del holder[leaf]
        assert [d.key for d in compare_reports(fresh, first).offenders] == [key]

    def test_every_speedup_leaf_is_relative(self, runs):
        _, first, _ = runs
        for key in flatten(first):
            if "speedup" in key.rsplit(".", 1)[-1]:
                assert default_band(key) == Band("relative", 1e-9), key


def test_unknown_band_kind_and_benchmark_tag_still_raise():
    for kind in ("fuzzy", "slowdown", "floor"):
        with pytest.raises(ExperimentError, match="unknown tolerance-band"):
            Band(kind, 2.0).allows(1.0, 1.0)
    with pytest.raises(ExperimentError, match="unknown benchmark kind 'walls'"):
        emission_for_baseline({"benchmark": "walls", "level": "minimal", "n_sweeps": 1})
    with pytest.raises(ExperimentError, match=r"sparse baseline is missing .*n_units"):
        emission_for_baseline({"benchmark": "sparse", "level": "minimal", "n_sweeps": 1})


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
