"""The perf-regression gate: fresh emission vs committed baseline (DESIGN §10.6).

Benchmark artifacts (``BENCH_*.json``) are flattened to dotted metric
paths and compared metric-by-metric under a *tolerance band* chosen by
key pattern.  The emissions read no clock, so every band is two-sided;
wall time is gated in one place, ``BENCHMARK.json`` + ``benchmarks/e2e``.

``exact``
    deterministic work counters (calls, elements, cache hits/misses,
    launches, grid/basis sizes) — any drift means the work itself
    changed, which is exactly what the gate must catch;
``relative``
    cost-model floats (``modeled_seconds`` and every ``*speedup*``
    ratio of them) — deterministic arithmetic, 1e-9 of slack for
    library-level reduction-order jitter;
``ignore``
    recorded but never gating.

>>> base = {"calls": 8, "modeled_seconds": 1.0, "model_speedup": 10.0}
>>> compare_reports(dict(base), dict(base)).ok
True
>>> bad = dict(base, model_speedup=9.0)
>>> rep = compare_reports(bad, base)
>>> rep.ok, [d.key for d in rep.offenders]
(False, ['model_speedup'])
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ExperimentError


@dataclass(frozen=True)
class Band:
    """One metric's tolerance policy.

    >>> Band("exact").allows(3.0, 3.0)
    True
    >>> Band("relative", 1e-9).allows(baseline=1.0, fresh=1.0 + 1e-12)
    True
    >>> Band("relative", 1e-9).allows(baseline=1.0, fresh=0.99)
    False
    """

    kind: str  # "exact" | "relative" | "ignore"
    tol: float = 0.0

    def allows(self, baseline: float, fresh: float) -> bool:
        """Does *fresh* stay in-band relative to *baseline*?"""
        if self.kind == "ignore":
            return True
        if self.kind == "exact":
            return fresh == baseline
        if self.kind == "relative":
            scale = max(abs(baseline), 1e-300)
            return abs(fresh - baseline) / scale <= self.tol
        raise ExperimentError(f"unknown tolerance-band kind {self.kind!r}")

    def describe(self) -> str:
        """Short human-readable form for report rows."""
        if self.kind == "relative":
            return f"+-{self.tol:g} rel"
        return self.kind


def default_band(key: str) -> Band:
    """The tolerance policy for one flattened metric key.

    The rules encode the policy documented in DESIGN §10.6: counters
    are exact, cost-model floats are relative, BLAS-noise residuals are
    recorded only.

    >>> default_band("backends.warm.profile.phases.H.calls").kind
    'exact'
    >>> default_band("backends.device.bill.modeled_seconds").kind
    'relative'
    >>> default_band("model.speedup").kind
    'relative'
    >>> default_band("diff.density_max_diff").kind
    'ignore'
    """
    leaf = key.rsplit(".", 1)[-1]
    if "diff" in leaf:
        # Dense-vs-screened residuals: bounded by the emission itself
        # (it refuses to report past the physics tolerance) but their
        # exact value is BLAS-library noise — recorded, never gating.
        return Band("ignore")
    if leaf == "modeled_seconds" or "speedup" in leaf:
        # Cost-model output and ratios of it: deterministic float
        # arithmetic, but allow for library-level reduction-order jitter.
        return Band("relative", 1e-9)
    return Band("exact")


def flatten(doc: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested JSON document as dotted paths.

    Booleans and strings are skipped — the gate compares measurements,
    not labels.

    >>> flatten({"a": {"b": 2}, "label": "x", "ok": True})
    {'a.b': 2.0}
    """
    out: Dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten(value, path))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[path] = float(value)
    return out


@dataclass
class MetricDelta:
    """One compared metric: values, band, verdict."""

    key: str
    baseline: Optional[float]
    fresh: Optional[float]
    band: Band
    ok: bool

    def describe(self) -> str:
        """One report row, e.g. for the failure summary."""
        base = "missing" if self.baseline is None else f"{self.baseline:g}"
        new = "missing" if self.fresh is None else f"{self.fresh:g}"
        status = "ok" if self.ok else "REGRESSION"
        return f"{self.key}: baseline={base} fresh={new} [{self.band.describe()}] {status}"


@dataclass
class RegressionReport:
    """Outcome of one baseline comparison."""

    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def offenders(self) -> List[MetricDelta]:
        """Every metric that left its tolerance band."""
        return [d for d in self.deltas if not d.ok]

    @property
    def ok(self) -> bool:
        """True when no compared metric left its band."""
        return not self.offenders

    def render(self) -> str:
        """Summary plus one line per offending metric."""
        checked = [d for d in self.deltas if d.band.kind != "ignore"]
        lines = [
            f"bench-check: {len(checked)} metrics compared, "
            f"{len(self.offenders)} out of band"
        ]
        for d in self.offenders:
            lines.append("  " + d.describe())
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def compare_reports(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    overrides: Optional[Dict[str, Band]] = None,
) -> RegressionReport:
    """Compare one fresh benchmark emission against a committed baseline.

    Every metric present in the baseline must exist in the fresh
    emission (a vanished metric is itself a regression — the benchmark
    stopped measuring something).  Metrics new in the fresh emission
    are recorded but pass (baselines are updated by re-committing).
    """
    overrides = overrides or {}
    base_flat = flatten(baseline)
    fresh_flat = flatten(fresh)
    report = RegressionReport()
    for key in sorted(set(base_flat) | set(fresh_flat)):
        band = overrides.get(key, default_band(key))
        b, f = base_flat.get(key), fresh_flat.get(key)
        if b is None:
            ok = True  # new metric, not yet in the baseline
        elif f is None:
            ok = False  # metric vanished from the fresh emission
        else:
            ok = band.allows(b, f)
        report.deltas.append(MetricDelta(key, b, f, band, ok))
    return report


def load_baseline(path: Union[str, Path]) -> Dict[str, object]:
    """Read one committed ``BENCH_*.json`` baseline."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(
            f"baseline {path} does not exist; run the benchmark once and "
            "commit its JSON output"
        )
    return json.loads(path.read_text())
