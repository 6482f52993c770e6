"""Strong/weak scaling math of the Fig. 15/16 modules (DESIGN §11.4).

The Fig. 15/16 experiment modules, whose tables ``repro analyze
scaling`` prints, compute speedups and efficiencies through these two
functions, so the definitions exist exactly once:

* strong scaling — fixed problem, growing ranks: ``speedup = t_0 / t``
  and ``efficiency = speedup / (p / p_0)``;
* weak scaling — problem and ranks grow together: ``efficiency =
  t_0 / t`` (per-rank work is constant by construction).

>>> pts = strong_scaling([100, 200], [10.0, 6.0])
>>> (round(pts[1].speedup, 3), round(pts[1].efficiency, 3))
(1.667, 0.833)
>>> weak_scaling([1000, 2000], [100, 200], [10.0, 12.5])[1].efficiency
0.8
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ExperimentError


@dataclass(frozen=True)
class ScalingPoint:
    """One (ranks, time) measurement with its derived ratios."""

    ranks: int
    cycle_seconds: float
    speedup: float
    efficiency: float
    atoms: Optional[int] = None


def _validate(ranks: Sequence[int], seconds: Sequence[float]) -> None:
    if not ranks or len(ranks) != len(seconds):
        raise ExperimentError(
            f"scaling series needs matching non-empty ranks/seconds, got "
            f"{len(ranks)}/{len(seconds)}"
        )
    if any(t <= 0 for t in seconds):
        raise ExperimentError("scaling series has non-positive cycle times")
    if any(p <= 0 for p in ranks):
        raise ExperimentError("scaling series has non-positive rank counts")


def strong_scaling(
    ranks: Sequence[int], seconds: Sequence[float]
) -> List[ScalingPoint]:
    """Derive strong-scaling speedups/efficiencies vs the first point."""
    _validate(ranks, seconds)
    t0, p0 = seconds[0], ranks[0]
    return [
        ScalingPoint(
            ranks=int(p),
            cycle_seconds=float(t),
            speedup=t0 / t,
            efficiency=(t0 / t) / (p / p0),
        )
        for p, t in zip(ranks, seconds)
    ]


def weak_scaling(
    atoms: Sequence[int], ranks: Sequence[int], seconds: Sequence[float]
) -> List[ScalingPoint]:
    """Derive weak-scaling efficiencies vs the first point.

    The *effective* speedup scales the efficiency by the rank growth —
    what the machine delivered relative to one first-point run.
    """
    _validate(ranks, seconds)
    if len(atoms) != len(ranks):
        raise ExperimentError(
            f"scaling series needs matching atoms/ranks, got "
            f"{len(atoms)}/{len(ranks)}"
        )
    t0, p0 = seconds[0], ranks[0]
    return [
        ScalingPoint(
            ranks=int(p),
            cycle_seconds=float(t),
            speedup=(t0 / t) * (p / p0),
            efficiency=t0 / t,
            atoms=int(a),
        )
        for a, p, t in zip(atoms, ranks, seconds)
    ]

