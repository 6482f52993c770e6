"""The perf-regression gate: fresh emission vs committed baseline (DESIGN §10.6).

Benchmark artifacts (``BENCH_*.json``) are flattened to dotted metric
paths and compared metric-by-metric under a *tolerance band* chosen by
key pattern:

``exact``
    deterministic work counters (calls, elements, cache hits/misses,
    launches, grid/basis sizes, modeled seconds) — any drift means the
    work itself changed, which is exactly what the gate must catch;
``slowdown``
    measured wall seconds — one-sided: getting faster always passes,
    getting slower beyond ``(1 + tol)x`` the baseline fails;
``floor``
    speedup ratios — one-sided: higher is fine, falling below
    ``baseline / tol`` fails;
``ignore``
    recorded but never gating.

>>> base = {"calls": 8, "wall_seconds": 1.0, "wall_speedup": 10.0}
>>> compare_reports(dict(base), dict(base)).ok
True
>>> bad = dict(base, wall_seconds=9.0)  # 9x slowdown
>>> rep = compare_reports(bad, base)
>>> rep.ok, [d.key for d in rep.offenders]
(False, ['wall_seconds'])
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ExperimentError

#: Default slack for one-sided wall-time comparisons (fail above 3x base).
WALL_SLOWDOWN_TOLERANCE = 2.0

#: Slack for per-phase micro-times (fail above 10x base).  These are
#: sub-50ms slices of the total, so scheduler noise on a loaded machine
#: moves them far more than the aggregate wall they sum into.
PHASE_SLOWDOWN_TOLERANCE = 9.0

#: Default slack for one-sided speedup floors (fail below base / 3).
SPEEDUP_FLOOR_FACTOR = 3.0


@dataclass(frozen=True)
class Band:
    """One metric's tolerance policy.

    >>> Band("exact").allows(3.0, 3.0)
    True
    >>> Band("slowdown", 2.0).allows(baseline=1.0, fresh=2.9)
    True
    >>> Band("slowdown", 2.0).allows(baseline=1.0, fresh=3.1)
    False
    """

    kind: str  # "exact" | "slowdown" | "floor" | "relative" | "ignore"
    tol: float = 0.0

    def allows(self, baseline: float, fresh: float) -> bool:
        """Does *fresh* stay in-band relative to *baseline*?"""
        if self.kind == "ignore":
            return True
        if self.kind == "exact":
            return fresh == baseline
        if self.kind == "slowdown":
            return fresh <= baseline * (1.0 + self.tol)
        if self.kind == "floor":
            return fresh >= baseline / self.tol if self.tol > 0 else True
        if self.kind == "relative":
            scale = max(abs(baseline), 1e-300)
            return abs(fresh - baseline) / scale <= self.tol
        raise ExperimentError(f"unknown tolerance-band kind {self.kind!r}")

    def describe(self) -> str:
        """Short human-readable form for report rows."""
        if self.kind == "exact":
            return "exact"
        if self.kind == "ignore":
            return "ignore"
        if self.kind == "slowdown":
            return f"<= {1.0 + self.tol:g}x base"
        if self.kind == "floor":
            return f">= base/{self.tol:g}"
        return f"+-{self.tol:g} rel"


def default_band(key: str) -> Band:
    """The tolerance policy for one flattened metric key.

    The rules encode the policy documented in DESIGN §10.6: anything
    deterministic is exact; anything wall-clock is one-sided.

    >>> default_band("backends.warm.profile.phases.H.calls").kind
    'exact'
    >>> default_band("backends.cold.wall_seconds").kind
    'slowdown'
    >>> default_band("screened_speedup_vs_dense").kind
    'floor'
    >>> default_band("diff.density_max_diff").kind
    'ignore'
    """
    leaf = key.rsplit(".", 1)[-1]
    if "diff" in leaf:
        # Dense-vs-screened residuals: bounded by the emission itself
        # (it refuses to report past the physics tolerance) but their
        # exact value is BLAS-library noise — recorded, never gating.
        return Band("ignore")
    if "speedup" in leaf:
        return Band("floor", SPEEDUP_FLOOR_FACTOR)
    if leaf == "modeled_seconds":
        # Cost-model output: deterministic float arithmetic, but allow
        # for library-level reduction-order jitter.
        return Band("relative", 1e-9)
    if leaf == "seconds":
        # Per-phase profile slices: tiny absolute times, noisy under load.
        return Band("slowdown", PHASE_SLOWDOWN_TOLERANCE)
    if "wall" in leaf or leaf.endswith("_seconds"):
        return Band("slowdown", WALL_SLOWDOWN_TOLERANCE)
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


def baseline_run_parameters(baseline: Dict[str, object]) -> Tuple[str, int]:
    """The (level, n_sweeps) a fresh emission must use to be comparable.

    >>> baseline_run_parameters({"level": "light", "n_sweeps": 8})
    ('light', 8)
    """
    try:
        return str(baseline["level"]), int(baseline["n_sweeps"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        raise ExperimentError(
            "baseline is missing its run parameters (level, n_sweeps); "
            "regenerate it with the current benchmark"
        ) from None
