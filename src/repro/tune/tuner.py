"""The closed tuning loop: model → trial → decide → record (DESIGN §15).

:func:`tune` is the single entry point every consumer shares (``repro
tune``, ``repro submit --tune``, the fleet wave planner, the tuner
benchmark).  One invocation:

1. **prices** every candidate in :func:`repro.tune.space.search_space`
   with the analytic cost model (:mod:`repro.tune.costmodel`),
2. **warm-starts** the short list from prior decisions in the
   ``--history`` journal whose workload fingerprint matches,
3. **trials** the short list — seeded single-sweep runs through the
   real :class:`~repro.dft.hamiltonian.MatrixBuilder` seam, re-priced
   from their deterministic backend-profile counters,
4. **decides**, with the hand-picked default always in the running and
   always the fallback: the chosen config is never predicted *or*
   measured slower than the default, and
5. **records** everything as a :class:`~repro.tune.decision.TunerDecision`
   (append it to history with :func:`append_decision`).

Every stage is deterministic — same workload fingerprint + same
history ⇒ byte-identical decision (the hypothesis-pinned contract).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.config import RunSettings
from repro.tune.costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    WorkloadInputs,
    predict_cost,
    price_profile,
)
from repro.tune.decision import CandidateOutcome, TunerDecision
from repro.tune.space import (
    TunedConfig,
    TuningError,
    default_config,
    search_space,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.atoms.structure import Structure
    from repro.runtime.machines import MachineSpec

#: History label under which tuner decisions are filed.
HISTORY_LABEL = "tuner"

#: Knobs the tuner owns; excluded from the workload fingerprint so one
#: workload keeps one fingerprint no matter which knob values it
#: currently carries (that is what makes warm starts find it again).
TUNED_SETTINGS_KEYS = ("backend", "screening_threshold", "tuning")


def workload_fingerprint(
    structure: "Structure",
    settings: RunSettings,
    charge: int = 0,
) -> str:
    """Content hash identifying one tunable workload.

    Covers the structure, the charge and every *non-tuned* settings
    field; the tuner-owned knobs (backend, screening, batching
    granularity, the tuning block itself) are stripped first.
    Two runs of the same physics with different hand-picked performance
    knobs therefore share a fingerprint — and share warm starts.
    """
    from repro.service.jobs import structure_fingerprint

    canonical = settings.as_canonical_dict()
    for key in TUNED_SETTINGS_KEYS:
        canonical.pop(key, None)
    grids = canonical.get("grids")
    if isinstance(grids, dict):
        grids.pop("batch_target_points", None)
    doc = {
        "charge": int(charge),
        "settings": canonical,
        "structure": structure_fingerprint(structure),
    }
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()
    return f"wf-{digest[:16]}"


# ----------------------------------------------------------------------
# Warm start: prior decisions out of the tuner's own journal.
# ----------------------------------------------------------------------

def warm_start_configs(
    history_path: Optional[Union[str, Path]],
    fingerprint: str,
) -> List[TunedConfig]:
    """Chosen configs of prior decisions matching *fingerprint*.

    Reads every history entry filed under the tuner label — an entry's
    ``emission`` is the decision :func:`append_decision` wrote — newest
    first, deduplicated.  Decisions naming a backend that is no longer
    registered are skipped.
    """
    if history_path is None:
        return []
    from repro.backends import available_backends
    from repro.obs.analyze.history import load_history

    registered = available_backends()
    out: List[TunedConfig] = []
    for entry in reversed(load_history(history_path, label=HISTORY_LABEL)):
        record = entry["emission"]
        try:
            if record["fingerprint"] != fingerprint:
                continue
            cfg = TunedConfig.from_dict(record["chosen"])
        except (KeyError, TypeError, ValueError):
            continue
        if cfg.backend in registered and cfg not in out:
            out.append(cfg)
    return out


def append_decision(
    history_path: Union[str, Path],
    decision: TunerDecision,
) -> Dict[str, object]:
    """File one decision in the tuner's journal (the feedback edge).

    The next :func:`tune` over the same workload fingerprint reads it
    back as a warm start — this append is what closes the loop.
    """
    from repro.obs.analyze.history import append_entry

    return append_entry(
        history_path,
        decision.as_dict(),
        label=HISTORY_LABEL,
        provenance=decision.provenance,
    )


# ----------------------------------------------------------------------
# Measured stage: seeded trial runs through the real builder seam.
# ----------------------------------------------------------------------

class _TrialRunner:
    """Runs and caches seeded trial sweeps for the measured stage.

    One basis/grid build is shared across all trials; profiles are
    cached per *trial key* — the subset of knobs a single-process trial
    can actually exercise (backend, batching, screening).
    Mapping/comm/fleet knobs do not change the trial, so candidates
    differing only there share one profile.
    """

    def __init__(self, structure: "Structure", settings: RunSettings) -> None:
        self.structure = structure
        self.settings = settings
        self._substrate = None
        self._profiles: Dict[tuple, Dict[str, object]] = {}
        self._batches: Dict[int, object] = {}
        self.trial_wall_seconds = 0.0

    @staticmethod
    def trial_key(config: TunedConfig) -> tuple:
        """The knob subset one single-process trial distinguishes."""
        return (
            config.backend,
            config.batch_target_points,
            config.screening_threshold,
        )

    def profile(self, config: TunedConfig) -> Dict[str, object]:
        """The backend-profile snapshot of one (cached) trial run."""
        from repro.dft.hamiltonian import MatrixBuilder, build_substrate
        from repro.grids.batching import build_batches
        from repro.obs.bench import BENCH_SEED, sweep

        key = self.trial_key(config)
        if key in self._profiles:
            return self._profiles[key]
        if self._substrate is None:
            grids = self.settings.grids
            self._substrate = build_substrate(self.structure, grids)
            # Trials that keep the default batching reuse its batches.
            self._batches[grids.batch_target_points] = self._substrate.batches
        sub = self._substrate
        bt = config.batch_target_points
        if bt not in self._batches:
            self._batches[bt] = build_batches(sub.grid, target_points=bt)
        start = time.perf_counter()
        builder = MatrixBuilder(
            sub.basis,
            sub.grid,
            batches=self._batches[bt],
            backend=config.backend,
            screening_threshold=config.screening_threshold,
        )
        sweep(builder, 1, seed=BENCH_SEED)
        self.trial_wall_seconds += time.perf_counter() - start
        profile = builder.backend.profile.as_dict()
        self._profiles[key] = profile
        return profile

    @property
    def n_trials(self) -> int:
        """Distinct trial runs executed so far."""
        return len(self._profiles)


# ----------------------------------------------------------------------
# The loop.
# ----------------------------------------------------------------------

def _resolve_machine(machine: Union[str, "MachineSpec", None]) -> "MachineSpec":
    from repro.runtime import HPC2_AMD, machine_by_name

    if machine is None:
        return HPC2_AMD
    if isinstance(machine, str):
        return machine_by_name(machine)
    return machine


def tune(
    structure: "Structure",
    settings: RunSettings,
    *,
    machine: Union[str, "MachineSpec", None] = None,
    n_ranks: Optional[int] = None,
    budget: Optional[int] = None,
    fleet: bool = False,
    history_path: Optional[Union[str, Path]] = None,
    backends: Optional[Sequence[str]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    charge: int = 0,
) -> TunerDecision:
    """Run the closed loop once; return the decision (not yet applied).

    ``budget`` bounds the measured stage: the default configuration is
    always trialed (when the budget is positive), then the top model
    picks and any warm starts fill the remaining ``budget`` distinct
    trial slots.  ``budget=0`` skips trials entirely (model-only
    decision — what the fleet wave planner uses on its hot path).
    Unspecified knobs default to ``settings.tuning``.
    """
    tuning = settings.tuning
    ranks = int(n_ranks if n_ranks is not None else tuning.n_ranks)
    trials_budget = int(budget if budget is not None else tuning.budget)
    if ranks < 1:
        raise TuningError(f"need >= 1 rank to tune for, got {ranks}")
    if trials_budget < 0:
        raise TuningError(f"trial budget must be >= 0, got {trials_budget}")
    spec = _resolve_machine(machine)

    fingerprint = workload_fingerprint(structure, settings, charge=charge)
    default = default_config(settings)

    # Stage 1: price the whole space analytically.
    model_start = time.perf_counter()
    inputs = WorkloadInputs(structure, settings)
    space = search_space(settings, fleet=fleet, backends=backends)
    if default not in space:
        space = sorted(space + [default], key=TunedConfig.sort_key)
    predictions = {
        cfg: predict_cost(inputs, cfg, spec, ranks, cost_model)
        for cfg in space
    }
    ranked = sorted(
        (p for p in predictions.values() if p.feasible),
        key=lambda p: (p.total_seconds, p.config.sort_key()),
    )
    if not ranked:
        raise TuningError(
            f"no feasible candidate configuration on machine {spec.name}"
        )
    model_seconds = time.perf_counter() - model_start

    # Stage 2: warm starts + short list, then budgeted trials.
    warm: List[TunedConfig] = []
    for cfg in warm_start_configs(
        history_path if tuning.warm_start else None, fingerprint
    ):
        if cfg not in predictions:
            # A prior decision from an older/larger space: price it too.
            predictions[cfg] = predict_cost(inputs, cfg, spec, ranks, cost_model)
        if predictions[cfg].feasible and cfg not in warm:
            warm.append(cfg)
    shortlist: List[TunedConfig] = []
    sources: Dict[TunedConfig, str] = {}

    def _shortlist(cfg: TunedConfig, source: str) -> None:
        if cfg not in shortlist:
            shortlist.append(cfg)
            sources[cfg] = source

    if predictions[default].feasible:
        _shortlist(default, "trial")
    for cfg in warm:
        _shortlist(cfg, "warm-start")
    for pred in ranked:
        _shortlist(pred.config, "trial")

    runner = _TrialRunner(structure, settings)
    outcomes: List[CandidateOutcome] = []
    for cfg in shortlist:
        pred = predictions[cfg]
        measured: Optional[float] = None
        key = _TrialRunner.trial_key(cfg)
        if trials_budget > 0 and (
            key in runner._profiles or runner.n_trials < trials_budget
        ):
            profile = runner.profile(cfg)
            measured = price_profile(profile, cfg, pred, ranks, cost_model)
        outcomes.append(
            CandidateOutcome(
                config=cfg,
                predicted_seconds=pred.total_seconds,
                measured_seconds=measured,
                source=sources[cfg],
            )
        )
    # Keep the record compact: measured candidates plus the best
    # model-only ones up to a small tail.
    recorded = [o for o in outcomes if o.measured_seconds is not None]
    tail = [o for o in outcomes if o.measured_seconds is None]
    recorded += tail[: max(0, 8 - len(recorded))]
    default_outcome = next(
        (o for o in recorded if o.config == default), None
    )
    if default_outcome is None:
        default_outcome = CandidateOutcome(
            config=default,
            predicted_seconds=predictions[default].total_seconds,
            source="model",
        )
        recorded.append(default_outcome)

    # Stage 3: decide — measured-first ranking, default as the floor.
    def _rank_key(out: CandidateOutcome) -> tuple:
        deciding = (
            out.measured_seconds
            if out.measured_seconds is not None
            else out.predicted_seconds
        )
        return (deciding, out.predicted_seconds, out.config.sort_key())

    winner = min(recorded, key=_rank_key)
    slower_predicted = (
        winner.predicted_seconds > default_outcome.predicted_seconds
    )
    slower_measured = (
        winner.measured_seconds is not None
        and default_outcome.measured_seconds is not None
        and winner.measured_seconds > default_outcome.measured_seconds
    )
    if slower_predicted or slower_measured:
        winner = default_outcome

    workload = inputs.workload
    return TunerDecision(
        fingerprint=fingerprint,
        workload={
            "n_atoms": workload.n_atoms,
            "n_basis": workload.n_basis,
            "n_grid_points": workload.n_grid_points,
        },
        space_size=len(space),
        candidates=sorted(recorded, key=_rank_key),
        chosen=winner.config,
        default=default,
        warm_started=bool(warm),
        machine=spec.name,
        n_ranks=ranks,
        provenance=_provenance(),
        timings={
            "model_stage_seconds": model_seconds,
            "measured_stage_seconds": runner.trial_wall_seconds,
        },
    )


def _provenance() -> Dict[str, object]:
    from repro.obs.bench import BENCH_SEED
    from repro.obs.report import collect_provenance

    return collect_provenance(seed=BENCH_SEED).as_dict()


def tuned_settings(
    structure: "Structure",
    settings: RunSettings,
    **kwargs,
) -> tuple:
    """Convenience: run :func:`tune` and apply the winner.

    Returns ``(effective_settings, decision)``; the effective settings
    carry ``tuning.mode == "off"`` (see
    :meth:`repro.tune.space.TunedConfig.apply`), so downstream cache
    keys match the equivalent hand-picked configuration.
    """
    decision = tune(structure, settings, **kwargs)
    return decision.apply(settings), decision
