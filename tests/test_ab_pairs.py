"""``tools/ab_pairs.py``: the verdict arithmetic of alternating benchmark
pairs, on made-up result lines, and the byte-compiled state both trees
start from (no harness run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten parent readings: median 31.0, quartiles 30.25 and 31.75 (IQR 1.5).
PARENT = [29.0, 30.0, 30.0, 31.0, 31.0, 31.0, 31.0, 32.0, 32.0, 33.0]


def test_seed_ranges(ab):
    assert ab.parse_seeds("501-510") == list(range(501, 511))
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError, match="empty"):
        ab.parse_seeds("9-3")


def test_median_and_quartiles_interpolate(ab):
    assert ab.summary(PARENT) == (31.0, 30.25, 31.75)
    assert ab.summary([4.0]) == (4.0, 4.0, 4.0)


def test_nine_wins_and_a_gap_over_the_iqr_hold(ab):
    change = [p - 3.0 for p in PARENT]
    change[0] = 40.0  # one lost pair of ten
    assert ab.verdict(PARENT, change, "lower") == (9, True)


def test_eight_wins_do_not_hold(ab):
    change = [p - 3.0 for p in PARENT]
    change[0] = change[1] = 40.0
    assert ab.verdict(PARENT, change, "lower") == (8, False)


def test_every_pair_won_but_inside_the_iqr_does_not_hold(ab):
    # Medians 1.4 apart against a parent IQR of 1.5.
    assert ab.verdict(PARENT, [p - 1.4 for p in PARENT], "lower") == (10, False)
    assert ab.verdict(PARENT, [p - 1.6 for p in PARENT], "lower") == (10, True)


def test_ties_win_nothing_and_direction_is_the_metrics(ab):
    assert ab.verdict(PARENT, PARENT, "lower") == (0, False)
    higher = [p + 2.0 for p in PARENT]
    assert ab.verdict(PARENT, higher, "higher") == (10, True)
    assert ab.verdict(PARENT, higher, "lower") == (0, False)


def _doc(failed, value):
    return {"failed": failed, "attempted": 10, "metrics": {"op_a_ms": {"value": value, "unit": "ms"}}}


def test_a_run_with_failed_operations_gets_no_verdict(ab):
    parent = [_doc(0, v) for v in PARENT]
    change = [_doc(0, v - 3.0) for v in PARENT]
    lines = ab.report(parent, change, {"op_a_ms": "lower"})
    assert lines[0] == "10 pairs" and lines[1].endswith("wins 10/10: gain holds")
    change[4] = _doc(1, 1.0)
    with pytest.raises(SystemExit, match="1 run"):
        ab.report(parent, change, {"op_a_ms": "lower"})


def _fake_tree(root, cached):
    """A checkout with one module under each compiled directory; *cached*
    trees already hold a ``__pycache__`` for the first."""
    for rel in ("src/pkg/mod.py", "benchmarks/e2e/harness.py"):
        path = root / rel
        path.parent.mkdir(parents=True)
        path.write_text("VALUE = 1\n")
    if cached:
        cache = root / "src" / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "mod.stale.pyc").write_bytes(b"")
    return root


def _caches(tree):
    return sorted(p.name.split(".")[0] for p in tree.rglob("__pycache__/*.cpython-*.pyc"))


def test_both_trees_are_byte_compiled_before_the_first_pair(ab, tmp_path, monkeypatch):
    """With ``PYTHONDONTWRITEBYTECODE=1`` and a cache in one tree only,
    both trees hold a cache of every compiled module when the first run
    starts."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = (_fake_tree(tmp_path / "parent", True), _fake_tree(tmp_path / "change", False))
    seen = []

    def run_once(tree, workload, seed):
        seen.append((tree.name, seed, _caches(trees[0]), _caches(trees[1])))
        return _doc(0, 1.0)

    monkeypatch.setattr(ab, "run_once", run_once)
    ab.collect(trees, "w", [1, 2])
    both = ["harness", "mod"]
    assert seen[0] == ("parent", 1, both, both)
    assert [(name, seed) for name, seed, *_ in seen] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2)
    ]
