"""The byte-stable view of a document that carries measured seconds.

A service result payload keeps everything wall-clock-dependent under
``timings`` subtrees; :func:`stable_view` drops them, so serializing what
remains with sorted keys yields identical bytes across repeated runs of
the same code.  Wall time is measured and gated in one place,
``BENCHMARK.json`` + ``benchmarks/e2e``; deterministic counters are
pinned by parity tests.
"""

from __future__ import annotations


def stable_view(report: dict) -> dict:
    """A document with every ``timings`` subtree removed, recursively.

    >>> stable_view({"a": 1, "timings": {"wall": 0.3},
    ...              "b": {"timings": {}, "calls": 2}})
    {'a': 1, 'b': {'calls': 2}}
    """
    return {
        k: stable_view(v) if isinstance(v, dict) else v
        for k, v in report.items()
        if k != "timings"
    }
