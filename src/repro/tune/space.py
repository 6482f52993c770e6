"""The auto-tuner's configuration space (DESIGN §15.1).

One :class:`TunedConfig` bundles every performance knob the paper's
authors hand-picked per machine — execution backend, rank→atom mapping
strategy, reduction scheme, kernel batching granularity, screening
threshold and fleet wave size — into a single hashable value the tuner
can enumerate, price, trial and record.

The space is *deterministic by construction*: :func:`search_space`
returns candidates in one canonical sorted order regardless of how the
axes were supplied, so two tuner runs over the same workload walk the
same list and (given the same history) reach byte-identical decisions.

>>> cfg = TunedConfig(backend="device", batch_target_points=100)
>>> TunedConfig.from_dict(cfg.as_dict()) == cfg
True
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import RunSettings, TuningSettings
from repro.errors import ReproError


class TuningError(ReproError):
    """Raised when the tuner is asked for something it cannot deliver."""


#: Mapping strategies the tuner may choose between (paper Fig. 9).
MAPPING_STRATEGIES = ("load_balancing", "locality")

#: Reduction schemes the tuner may choose between (paper Fig. 10);
#: names match :func:`repro.obs.analyze.comms.scheme_cost_seconds` keys.
COMM_SCHEMES = ("baseline", "packed", "packed_hierarchical")

#: Kernel batching granularities considered (paper: 100-300 points).
BATCH_TARGET_CHOICES = (100, 200, 300)

#: Fleet wave sizes considered when tuning for fleet execution.
FLEET_WAVE_CHOICES = (1, 2, 4, 8)


@dataclass(frozen=True)
class TunedConfig:
    """One point of the tuner's search space.

    ``backend``, ``batch_target_points`` and ``screening_threshold``
    are :class:`~repro.config.RunSettings` knobs (applied by
    :meth:`apply`); ``mapping``, ``comm_scheme`` and
    ``fleet_wave`` are driver-level knobs consumed by the scale models,
    the conformance matrix and the service worker pool.
    """

    backend: str = "numpy"
    mapping: str = "load_balancing"
    comm_scheme: str = "baseline"
    batch_target_points: int = 200
    screening_threshold: float = 0.0
    fleet_wave: int = 1

    def sort_key(self) -> Tuple:
        """Canonical ordering key (ties in cost break on this)."""
        return astuple(self)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (stable key order via sorted dumps)."""
        return {
            "backend": self.backend,
            "mapping": self.mapping,
            "comm_scheme": self.comm_scheme,
            "batch_target_points": int(self.batch_target_points),
            "screening_threshold": float(self.screening_threshold),
            "fleet_wave": int(self.fleet_wave),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TunedConfig":
        """Rebuild a config from :meth:`as_dict` output (exact round trip)."""
        d = dict(data)
        return cls(
            backend=str(d["backend"]),
            mapping=str(d["mapping"]),
            comm_scheme=str(d["comm_scheme"]),
            batch_target_points=int(d["batch_target_points"]),
            screening_threshold=float(d["screening_threshold"]),
            fleet_wave=int(d.get("fleet_wave", 1)),
        )

    def describe(self) -> str:
        """One-line human-readable form for decision tables."""
        parts = [
            self.backend,
            self.mapping,
            self.comm_scheme,
            f"batch={self.batch_target_points}",
            f"screen={self.screening_threshold:g}",
        ]
        if self.fleet_wave != 1:
            parts.append(f"wave={self.fleet_wave}")
        return " ".join(parts)

    def apply(self, settings: RunSettings) -> RunSettings:
        """The *effective* :class:`~repro.config.RunSettings` of this config.

        Rewrites exactly the knobs the tuner owns and resets the
        ``tuning`` block to its default (mode ``"off"``) — the applied
        settings describe a concrete configuration, so a tuned run's
        service cache key equals the identical hand-picked
        configuration's key and tuned runs dedup correctly
        (DESIGN §15.4).  How the tuner was *invoked* (budget, ranks,
        warm start) must not change what the run computes.
        """
        return replace(
            settings.with_grids(batch_target_points=self.batch_target_points),
            backend=self.backend,
            screening_threshold=self.screening_threshold,
            tuning=TuningSettings(),
        )


def default_config(settings: RunSettings) -> TunedConfig:
    """The hand-picked configuration the tuner must never lose to.

    Mirrors the knobs already present in *settings*; the driver-level
    knobs default to the paper's safe choices (load-balancing mapping,
    baseline reduction, no fleet batching).
    """
    return TunedConfig(
        backend=settings.backend,
        batch_target_points=settings.grids.batch_target_points,
        screening_threshold=settings.screening_threshold,
    )


def search_space(
    settings: RunSettings,
    *,
    fleet: bool = False,
    backends: Optional[Sequence[str]] = None,
) -> List[TunedConfig]:
    """Enumerate the candidate configurations for one workload.

    The cross product of every axis, in canonical sorted order; the
    current settings' own knob values are always included so the
    default configuration is a member of the space.  ``fleet=False``
    pins ``fleet_wave=1`` (single-run tuning); ``fleet=True`` adds the
    wave-size axis.
    """
    from repro.backends import available_backends
    from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

    backend_axis = tuple(backends) if backends else available_backends()
    batch_axis = sorted(
        set(BATCH_TARGET_CHOICES) | {settings.grids.batch_target_points}
    )
    screen_axis = sorted(
        {0.0, DEFAULT_SCREENING_THRESHOLD, settings.screening_threshold}
    )
    wave_axis: Sequence[int] = FLEET_WAVE_CHOICES if fleet else (1,)

    out = [
        TunedConfig(
            backend=b,
            mapping=m,
            comm_scheme=c,
            batch_target_points=bt,
            screening_threshold=st,
            fleet_wave=w,
        )
        for b in backend_axis
        for m in MAPPING_STRATEGIES
        for c in COMM_SCHEMES
        for bt in batch_axis
        for st in screen_axis
        for w in wave_axis
    ]
    if not out:
        raise TuningError("empty tuner search space")
    return sorted(out, key=TunedConfig.sort_key)
