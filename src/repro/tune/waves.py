"""Per-wave fleet tuning for the service worker pool (DESIGN §15.5).

``repro serve --fleet auto`` replaces the hand-picked wave size with a
:class:`WavePlanner`: before each scheduling step the pool asks the
planner how many tasks the next wave should claim.  The planner runs
the *model-only* closed loop (:func:`repro.tune.tuner.tune` with
``budget=0`` — no trial runs on the scheduling hot path) over the first
waiting physics payload, caches the decision per workload fingerprint,
and clamps the chosen wave to what is actually waiting.

Non-physics queues (test runners, noop payloads) fall back to waves of
one — the planner never guesses about work it cannot price.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.tune.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.tune.decision import TunerDecision
from repro.tune.tuner import tune, workload_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.machines import MachineSpec
    from repro.service.statestore import StateStore

#: Wave size when the queue holds nothing the planner can price.
DEFAULT_WAVE = 1


class WavePlanner:
    """Chooses fleet wave sizes from model-only tuner decisions.

    One planner instance lives as long as its worker pool; decisions
    are cached per workload fingerprint, so a steady-state queue of
    near-duplicate molecules (the screening-service shape) prices its
    workload exactly once.
    """

    def __init__(
        self,
        *,
        machine: Union[str, "MachineSpec", None] = None,
        n_ranks: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.machine = machine
        self.n_ranks = n_ranks
        self.cost_model = cost_model
        self._decisions: Dict[str, TunerDecision] = {}

    # ------------------------------------------------------------------
    def decision_for_payload(
        self, payload: Dict[str, object]
    ) -> Optional[TunerDecision]:
        """The (cached) fleet-axis decision for one physics payload.

        Returns ``None`` for payloads the planner cannot price (wrong
        kind, malformed structure/settings) — callers fall back to
        :data:`DEFAULT_WAVE`.
        """
        from repro.service.jobs import physics_from_payload

        try:
            structure, settings, charge = physics_from_payload(payload)
        except Exception:  # noqa: BLE001 — unpriceable payload, wave of one
            return None
        fingerprint = workload_fingerprint(structure, settings, charge=charge)
        if fingerprint not in self._decisions:
            self._decisions[fingerprint] = tune(
                structure,
                settings,
                machine=self.machine,
                n_ranks=self.n_ranks,
                budget=0,  # model-only: no trials on the scheduling path
                fleet=True,
                cost_model=self.cost_model,
                charge=charge,
            )
        return self._decisions[fingerprint]

    # ------------------------------------------------------------------
    def plan(self, store: "StateStore") -> int:
        """Wave size for the next scheduling step over *store*.

        The tuned wave of the oldest waiting payload, clamped to the
        number of waiting tasks (claiming more than exists only wastes
        lease churn).
        """
        from repro.service.statestore import WAITING

        waiting = store.tasks(status=WAITING)
        if not waiting:
            return DEFAULT_WAVE
        decision = self.decision_for_payload(waiting[0].payload)
        if decision is None:
            return DEFAULT_WAVE
        return max(1, min(decision.chosen.fleet_wave, len(waiting)))

    @property
    def n_decisions(self) -> int:
        """Distinct workload fingerprints priced so far."""
        return len(self._decisions)
