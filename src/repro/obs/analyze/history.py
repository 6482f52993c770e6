"""Benchmark history: provenance-stamped JSONL + trend detection (§11.6).

``BENCH_history.jsonl`` is append-only: every ``make bench-check`` run
adds one line holding the fresh emission, its provenance stamp, the
gate verdict and a timestamp.  On top of that log this module offers

* :func:`rolling_baseline` — a per-metric median over the last *k*
  entries, usable directly with
  :func:`repro.obs.regress.compare_reports` (flattening a flat dict is
  the identity), so the gate can compare against recent reality instead
  of one hand-committed snapshot;
* :func:`detect_trends` — slow monotone drifts that never trip the
  per-run tolerance band but add up across commits.

>>> entries = [{"emission": {"wall_seconds": w}} for w in (1.0, 1.1, 1.3)]
>>> rolling_baseline(entries)["wall_seconds"]
1.1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import median_low
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.obs.regress import baseline_run_parameters, default_band, flatten
from repro.utils.journal import append_json_line, read_json_lines

#: Entries considered by default for baselines and trend detection.
DEFAULT_WINDOW = 5

#: Relative drift across the window that flags a trend.
TREND_THRESHOLD = 0.25


def append_entry(
    path: Union[str, Path],
    emission: Dict[str, object],
    label: str = "backends",
    gate_ok: Optional[bool] = None,
    recorded_at: Optional[str] = None,
    provenance: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Append one provenance-stamped benchmark entry to the JSONL log.

    The line is serialized with sorted keys so history diffs stay
    reviewable; the log itself is append-only by construction.  Returns
    the entry that was written.
    """
    if provenance is None:
        prov = emission.get("provenance")
        if isinstance(prov, dict):
            provenance = prov
        else:
            from repro.obs.report import collect_provenance

            provenance = collect_provenance().as_dict()
    if recorded_at is None:
        recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry: Dict[str, object] = {
        "emission": emission,
        "gate_ok": gate_ok,
        "label": label,
        "provenance": provenance,
        "recorded_at": recorded_at,
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    append_json_line(out, entry)
    return entry


def load_history(
    path: Union[str, Path], label: Optional[str] = None
) -> List[Dict[str, object]]:
    """Read the history log, oldest first; missing file = empty history.

    A torn final line (a killed ``bench-check``) is skipped.
    """
    p = Path(path)
    if not p.exists():
        return []
    lines, _ = read_json_lines(p, what="benchmark history", error=ExperimentError)
    entries: List[Dict[str, object]] = []
    for i, entry in lines:
        if not isinstance(entry, dict) or "emission" not in entry:
            raise ExperimentError(f"{p}:{i} is not a history entry")
        if label is None or entry.get("label") == label:
            entries.append(entry)
    return entries


def _window_emissions(
    entries: Sequence[Dict[str, object]], window: int
) -> List[Dict[str, float]]:
    tail = list(entries)[-window:] if window > 0 else list(entries)
    return [flatten(e.get("emission", {})) for e in tail]  # type: ignore[arg-type]


def rolling_baseline(
    entries: Sequence[Dict[str, object]], window: int = DEFAULT_WINDOW
) -> Dict[str, float]:
    """Per-metric median over the last ``window`` entries (flat dict).

    Keys come from the most recent entry; each key's value is the low
    median of the entries that recorded it.  The result plugs straight
    into :func:`repro.obs.regress.compare_reports` as the baseline.
    """
    flats = _window_emissions(entries, window)
    if not flats:
        raise ExperimentError("history is empty; record one entry first")
    out: Dict[str, float] = {}
    for key in flats[-1]:
        values = [f[key] for f in flats if key in f]
        out[key] = median_low(values)
    return out


def latest_parameters(
    entries: Sequence[Dict[str, object]],
) -> Tuple[str, int]:
    """(level, n_sweeps) of the newest entry — the comparable settings."""
    if not entries:
        raise ExperimentError("history is empty; record one entry first")
    emission = entries[-1].get("emission")
    if not isinstance(emission, dict):
        raise ExperimentError("newest history entry has no emission")
    return baseline_run_parameters(emission)


@dataclass(frozen=True)
class Trend:
    """One metric drifting monotonically in its bad direction."""

    key: str
    direction: str  # "rising" | "falling"
    first: float
    last: float

    @property
    def change(self) -> float:
        """Relative drift across the window."""
        scale = max(abs(self.first), 1e-300)
        return (self.last - self.first) / scale

    def describe(self) -> str:
        """One report line."""
        return (
            f"{self.key}: {self.direction} {self.first:g} -> {self.last:g} "
            f"({self.change * 100:+.1f}% over window)"
        )


@dataclass
class TrendReport:
    """Outcome of one trend scan over the history window."""

    n_entries: int
    window: int
    trends: List[Trend] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no metric is drifting in its bad direction."""
        return not self.trends

    def render(self) -> str:
        """Summary plus one line per drifting metric."""
        lines = [
            f"history-trends: {self.n_entries} entr"
            f"{'y' if self.n_entries == 1 else 'ies'}, window {self.window}, "
            f"{len(self.trends)} drift(s)"
        ]
        for t in self.trends:
            lines.append("  " + t.describe())
        lines.append("PASS" if self.ok else "DRIFT")
        return "\n".join(lines)


def detect_trends(
    entries: Sequence[Dict[str, object]],
    window: int = DEFAULT_WINDOW,
    threshold: float = TREND_THRESHOLD,
) -> TrendReport:
    """Flag metrics drifting monotonically in their bad direction.

    Only wall-clock-style metrics can drift: keys whose tolerance band
    is ``slowdown`` are bad when rising, ``floor`` keys are bad when
    falling.  A trend needs at least three points, strict monotonicity
    and a relative change above ``threshold`` — a one-off noisy run
    breaks the monotone chain and clears the flag.
    """
    flats = _window_emissions(entries, window)
    report = TrendReport(n_entries=len(flats), window=window)
    if len(flats) < 3:
        return report
    for key in sorted(flats[-1]):
        band = default_band(key)
        if band.kind not in ("slowdown", "floor"):
            continue
        values = [f[key] for f in flats if key in f]
        if len(values) < 3:
            continue
        rising = all(b > a for a, b in zip(values, values[1:]))
        falling = all(b < a for a, b in zip(values, values[1:]))
        bad = rising if band.kind == "slowdown" else falling
        if not bad:
            continue
        trend = Trend(
            key=key,
            direction="rising" if rising else "falling",
            first=values[0],
            last=values[-1],
        )
        if abs(trend.change) > threshold:
            report.trends.append(trend)
    return report
