"""Public high-level API: the quantum-perturbation simulator.

Two entry points on :class:`PerturbationSimulator`:

* :meth:`~PerturbationSimulator.run_physics` — the real thing, for
  laptop-scale molecules: ground-state SCF, CPSCF, polarizability.
* :meth:`~PerturbationSimulator.run_model` — the scale path used by the
  paper's figures: real geometry/batching/mapping + the machine, device
  and communication models produce per-phase times, memory footprints
  and communication costs for arbitrary rank counts.
"""

from repro.core.flags import OptimizationFlags
from repro.core.workload import Workload, synthetic_batches
from repro.core.phasemodel import PhaseModel, CYCLE_PHASES
from repro.core.simulator import (
    PerturbationSimulator,
    SimulationReport,
    PhysicsResult,
    iter_physics,
)

__all__ = [
    "OptimizationFlags",
    "Workload",
    "synthetic_batches",
    "PhaseModel",
    "CYCLE_PHASES",
    "PerturbationSimulator",
    "SimulationReport",
    "PhysicsResult",
    "iter_physics",
]
