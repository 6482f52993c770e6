"""The tuner's cost-model stage: price candidate configs a priori (DESIGN §15.2).

Every term reuses a measurement seam the analytics tier already owns —
nothing here invents new physics:

* **kernel work** — block/element counts from
  :func:`repro.grids.sparsity.modeled_block_counts` (dense or screened,
  at the candidate's batching granularity), priced with per-backend
  unit costs;
* **mapping** — point imbalance and atom locality from
  :func:`repro.obs.analyze.imbalance.strategy_imbalance_factors` over
  the workload's summary batches;
* **communication** — per-scheme reduction estimates from
  :func:`repro.obs.analyze.comms.scheme_cost_seconds` on the machine
  models;
* **fleet** — substrate setup and device-launch overhead amortized
  over the candidate wave size (the PR-8 horizontal-fusion account).

Everything is pure float arithmetic over deterministic counts, so two
pricings of the same workload are bit-identical — the property the
decision byte-stability tests pin.  The unit costs live in one frozen
:class:`CostModel` whose :meth:`CostModel.perturbed` copy exists so the
regression gate can prove it *notices* a cost-model change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import RunSettings
from repro.tune.space import TunedConfig, TuningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.atoms.structure import Structure
    from repro.obs.analyze.imbalance import MappingAttribution
    from repro.runtime.machines import MachineSpec


#: Registry name -> the cost model's field prefix.
_COST_PREFIX = {"numpy": "host", "device": "device"}


@dataclass(frozen=True)
class CostModel:
    """Unit costs (seconds) the pricing stage multiplies counts by.

    Only their ratios steer decisions; the absolute scale cancels in
    every tuned-vs-default comparison.  One host engine, one pair of
    host costs (DESIGN §8 has the measurements behind the merge); the
    device pair prices a cheaper element and a dearer launch.
    """

    #: Per-element contraction cost of the host engine (``numpy``).
    host_element_seconds: float = 4.0e-9
    #: Per-element contraction cost of the priced device backend.
    device_element_seconds: float = 1.0e-9
    #: Per-batch dispatch overhead of the host engine (LRU lookup).
    host_call_seconds: float = 5.0e-6
    #: Per-batch launch overhead of the device backend.
    device_call_seconds: float = 2.0e-5
    #: Basis-block evaluation cost per element.
    eval_element_seconds: float = 2.0e-8
    #: Screening-pattern build cost per candidate (batch, atom) block.
    screen_block_seconds: float = 1.0e-7
    #: One-time per-molecule substrate setup a fleet wave amortizes.
    fleet_setup_seconds: float = 5.0e-2

    def perturbed(self, factor: float) -> "CostModel":
        """Every unit cost scaled by *factor* (gate-liveness testing)."""
        return replace(
            self,
            **{
                f.name: getattr(self, f.name) * factor
                for f in fields(self)
            },
        )

    def kernel_seconds(self, backend: str, elements: float, calls: float) -> float:
        """Contraction cost of *elements* over *calls* batch dispatches."""
        if backend not in _COST_PREFIX:
            raise TuningError(f"cost model has no unit costs for backend {backend!r}")
        prefix = _COST_PREFIX[backend]
        return (
            elements * getattr(self, f"{prefix}_element_seconds")
            + calls * getattr(self, f"{prefix}_call_seconds")
        )


#: The calibrated default model every tuner entry point shares.
DEFAULT_COST_MODEL = CostModel()


class WorkloadInputs:
    """Deterministic per-workload counts the pricing stage consumes.

    Built once per tuner invocation and shared across every candidate:
    block/element counts are cached per (batching granularity,
    screening threshold) pair and mapping attributions per (granularity,
    ranks) pair, so pricing a few hundred candidates costs a handful of
    count evaluations, not a grid build each.
    """

    def __init__(
        self, structure: "Structure", settings: RunSettings
    ) -> None:
        from repro.core.workload import build_workload

        self.structure = structure
        self.settings = settings
        self.workload = build_workload(structure, settings)
        self._counts: Dict[Tuple[int, float], Dict[str, float]] = {}
        self._mappings: Dict[Tuple[int, int], Dict[str, "MappingAttribution"]] = {}

    # ------------------------------------------------------------------
    def counts(self, batch_target: int, threshold: float) -> Dict[str, float]:
        """Block/element totals at one (granularity, threshold) point."""
        key = (int(batch_target), float(threshold))
        if key not in self._counts:
            self._counts[key] = self._build_counts(*key)
        return self._counts[key]

    def _build_counts(
        self, batch_target: int, threshold: float
    ) -> Dict[str, float]:
        import numpy as np

        from repro.core.workload import _points_per_atom

        ppa = _points_per_atom(
            self.structure, self.settings.grids
        ).astype("int64")
        n_batches = int(np.maximum(1, -(-ppa // int(batch_target))).sum())
        n_points = self.workload.n_grid_points
        n_basis = self.workload.n_basis
        dense = {
            "n_batches": n_batches,
            "blocks": n_batches * self.workload.n_atoms,
            "elements": n_points * n_basis,
        }
        if threshold <= 0.0:
            return dense
        from repro.grids.sparsity import modeled_block_counts

        modeled = modeled_block_counts(
            self.structure,
            self.settings,
            threshold=threshold,
            target_points=batch_target,
        )
        return {
            "n_batches": int(modeled["n_batches"]),
            "blocks": int(modeled["blocks_active"]),
            "elements": int(modeled["elements_active"]),
        }

    # ------------------------------------------------------------------
    def mapping(
        self, batch_target: int, n_ranks: int
    ) -> Dict[str, "MappingAttribution"]:
        """Both strategies' attribution at one granularity/rank count."""
        from repro.core.workload import synthetic_batches
        from repro.obs.analyze.imbalance import strategy_imbalance_factors

        key = (int(batch_target), int(n_ranks))
        if key not in self._mappings:
            batches = synthetic_batches(
                self.workload, target_points=batch_target
            )
            ranks = max(1, min(n_ranks, len(batches)))
            self._mappings[key] = strategy_imbalance_factors(batches, ranks)
        return self._mappings[key]


@dataclass(frozen=True)
class CostPrediction:
    """One candidate's priced breakdown (all seconds, deterministic)."""

    config: TunedConfig
    kernel_seconds: float
    eval_seconds: float
    screen_seconds: float
    comm_seconds: float
    fleet_seconds: float
    imbalance: float
    locality_fraction: float
    feasible: bool = True

    @property
    def total_seconds(self) -> float:
        """The single number candidates are ranked by."""
        if not self.feasible:
            return math.inf
        return (
            self.kernel_seconds
            + self.eval_seconds
            + self.screen_seconds
            + self.comm_seconds
            + self.fleet_seconds
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (used in the TunerDecision record)."""
        return {
            "config": self.config.as_dict(),
            "kernel_seconds": self.kernel_seconds,
            "eval_seconds": self.eval_seconds,
            "screen_seconds": self.screen_seconds,
            "comm_seconds": self.comm_seconds,
            "fleet_seconds": self.fleet_seconds,
            "imbalance": self.imbalance,
            "locality_fraction": self.locality_fraction,
            "feasible": self.feasible,
            "modeled_seconds": (
                None if not self.feasible else self.total_seconds
            ),
        }


def predict_cost(
    inputs: WorkloadInputs,
    config: TunedConfig,
    machine: "MachineSpec",
    n_ranks: int,
    model: CostModel = DEFAULT_COST_MODEL,
) -> CostPrediction:
    """Price one candidate configuration on one machine model.

    Infeasible candidates (a comm scheme the machine cannot run) come
    back with ``feasible=False`` and an infinite total rather than
    raising, so the search can simply rank them last.
    """
    from repro.obs.analyze.comms import scheme_cost_seconds

    counts = inputs.counts(config.batch_target_points, config.screening_threshold)
    attribution = inputs.mapping(config.batch_target_points, n_ranks)
    strategy = attribution[config.mapping]
    imbalance = float(strategy.imbalance)
    n_atoms = max(1, inputs.workload.n_atoms)
    locality_fraction = min(1.0, strategy.mean_atoms / n_atoms) or 1.0

    elements = float(counts["elements"])
    n_batches = float(counts["n_batches"])
    ranks = float(max(1, n_ranks))

    # Contraction work, parallel over ranks, stretched by the mapping's
    # point imbalance (the paper's Fig.-9 penalty).
    kernel = (
        model.kernel_seconds(config.backend, elements, n_batches)
        / ranks * imbalance
    )

    # Basis-block evaluation, once per block on every engine: each rank
    # evaluates only the functions of atoms its batches touch (the
    # locality mapping's payoff).
    table_elements = elements * locality_fraction
    eval_cost = table_elements * model.eval_element_seconds / ranks

    # Screening pattern build: every candidate (batch, atom) block is
    # tested once, dense or not.
    screen_cost = 0.0
    if config.screening_threshold > 0.0:
        dense_blocks = inputs.counts(config.batch_target_points, 0.0)["blocks"]
        screen_cost = dense_blocks * model.screen_block_seconds / ranks

    # Reduction-scheme estimate on the machine model (Fig. 10).
    n_basis = inputs.workload.n_basis
    schemes = scheme_cost_seconds(
        machine, max(2, n_ranks), n_rows=n_basis, row_bytes=8 * n_basis
    )
    if config.comm_scheme not in schemes:
        return CostPrediction(
            config=config,
            kernel_seconds=kernel,
            eval_seconds=eval_cost,
            screen_seconds=screen_cost,
            comm_seconds=math.inf,
            fleet_seconds=0.0,
            imbalance=imbalance,
            locality_fraction=locality_fraction,
            feasible=False,
        )
    comm = float(schemes[config.comm_scheme])

    # Fleet wave: substrate setup amortizes across the wave, and the
    # device model fuses same-name launches across molecules (one
    # overhead per kernel group per round instead of one per molecule).
    wave = float(max(1, config.fleet_wave))
    fleet_cost = model.fleet_setup_seconds / wave
    if config.backend == "device" and wave > 1.0:
        launch_overhead = n_batches * model.device_call_seconds / ranks
        fleet_cost -= launch_overhead * (wave - 1.0) / wave

    return CostPrediction(
        config=config,
        kernel_seconds=kernel,
        eval_seconds=eval_cost,
        screen_seconds=screen_cost,
        comm_seconds=comm,
        fleet_seconds=fleet_cost,
        imbalance=imbalance,
        locality_fraction=locality_fraction,
    )


def price_profile(
    profile: Dict[str, object],
    config: TunedConfig,
    prediction: CostPrediction,
    n_ranks: int,
    model: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Deterministic measured cost of one trial run's backend profile.

    The measured stage replaces the *kernel and evaluation* terms of a
    prediction with costs priced from the trial's actual deterministic
    counters (elements contracted, batch calls, cache misses, device
    modeled seconds); the mapping, communication and fleet terms —
    which a single-process trial cannot observe — stay model-priced, so
    measured totals remain comparable across the whole candidate set.
    Wall-clock seconds are deliberately not used: decisions must be
    byte-reproducible.
    """
    phases = profile.get("phases", {})
    elements = float(sum(p["elements"] for p in phases.values()))
    calls = float(sum(p["calls"] for p in phases.values()))
    device = profile.get("device", {})
    cache = profile.get("cache", {})
    ranks = float(max(1, n_ranks))

    if config.backend == "device" and device.get("modeled_seconds"):
        kernel = float(device["modeled_seconds"]) / ranks * prediction.imbalance
    else:
        kernel = (
            model.kernel_seconds(config.backend, elements, calls)
            / ranks * prediction.imbalance
        )

    misses = float(cache.get("misses", 0.0))
    if misses > 0.0 and elements > 0.0:
        # The host engine counts block evaluations as cache misses;
        # charge evaluation for exactly the evaluated share of its
        # block lookups (both are per-block counts — phase `calls` are
        # per-sweep and must not be mixed in).
        miss_fraction = misses / (misses + float(cache.get("hits", 0.0)))
        eval_cost = (
            elements * miss_fraction * model.eval_element_seconds / ranks
        )
    else:
        eval_cost = prediction.eval_seconds

    return (
        kernel
        + eval_cost
        + prediction.screen_seconds
        + prediction.comm_seconds
        + prediction.fleet_seconds
    )
