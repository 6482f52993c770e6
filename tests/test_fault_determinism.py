"""Cross-process determinism of the worker-crash decision stream.

The service chaos suite's byte-identical recovery assertions, and the
pinned ``repro status`` bytes of the telemetry suite's chaos drain, rest
on one contract: the same ``(seed, crash_rate, schedule)`` crashes the
same claims *in any process* — each decision's RNG stream is seeded by
``(seed, crc32(site), attempt)``, never by interpreter state, hash
randomization or call ordering.  An in-process check cannot establish
that, so the probe also runs in a fresh subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Probe shared by the in-process and subprocess runs: a fixed tour of
#: (worker, claim index, attempt) decisions at a mid crash rate.
PROBE = """
import json
from repro.service.faults import FaultPlan

def decision_stream(seed):
    plan = FaultPlan(seed=seed, crash_rate=0.3)
    stream = []
    for site in ("worker:w0", "worker:w1", "worker:w2"):
        for call_index in range(25):
            for attempt in range(3):
                ev = plan.worker_fault(site, call_index, attempt)
                stream.append(None if ev is None else [ev.site, ev.detail])
    return stream
"""

_SUBPROCESS_MAIN = PROBE + """
import sys
print(json.dumps(decision_stream(int(sys.argv[1]))))
"""


def _local_stream(seed):
    scope = {}
    exec(PROBE, scope)
    return scope["decision_stream"](seed)


def _subprocess_stream(seed, extra_args=()):
    out = subprocess.run(
        [sys.executable, *extra_args, "-c", _SUBPROCESS_MAIN, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(out.stdout)


def test_stream_is_reproducible_across_processes():
    seed = 2023
    local = _local_stream(seed)
    remote = _subprocess_stream(seed)
    # JSON-normalize the local stream (tuples/lists) before comparing.
    assert json.loads(json.dumps(local)) == remote
    # The mixed rates actually fire: a silent all-None stream would make
    # this test vacuous.
    assert any(d is not None for d in local)
    assert any(d is None for d in local)


def test_stream_survives_hash_randomization():
    """crc32 site hashing must not inherit PYTHONHASHSEED."""
    seed = 7
    a = _subprocess_stream(seed, extra_args=())
    b = _subprocess_stream(seed, extra_args=("-R",))
    assert a == b


def test_different_seeds_differ():
    assert _local_stream(1) != _local_stream(2)


def test_stream_independent_of_interleaving():
    """Decisions depend only on (site, index, attempt), not the order
    other sites were queried in — the property that lets a requeued task
    draw its own fresh decision whichever worker claims it next."""
    from repro.service.faults import FaultPlan

    def probe(order):
        plan = FaultPlan(seed=11, crash_rate=0.4)
        decisions = {}
        for site, idx in order:
            decisions[(site, idx)] = plan.worker_fault(site, idx) is not None
        return decisions

    forward = [(s, i) for s in ("worker:a", "worker:b") for i in range(20)]
    assert probe(forward) == probe(list(reversed(forward)))
    assert any(probe(forward).values()) and not all(probe(forward).values())
