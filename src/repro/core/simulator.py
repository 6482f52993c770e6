"""The top-level :class:`PerturbationSimulator` API.

One object, two modes:

* ``run_physics()`` — real all-electron DFPT on the given molecule
  (small systems): returns ground state, polarizability tensor and
  measured per-phase wall times.  It calls :func:`run_physics`, the
  one place the SCF -> CPSCF -> alpha pipeline of Fig. 1 is written;
  a fleet wave calls it once per physics group.
* ``run_model(machine, n_ranks, flags)`` — the exascale path: builds
  the workload summary, maps batches under the selected strategy and
  prices every phase with the device/communication models; used by all
  scale figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.atoms.structure import Structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import BackendProfile, ExecutionBackend
    from repro.dft.hamiltonian import Substrate
    from repro.verify.invariants import VerifyReport
from repro.config import RunSettings, get_settings
from repro.core.flags import OptimizationFlags
from repro.core.phasemodel import PhaseBreakdown, PhaseModel
from repro.core.workload import Workload, build_workload, synthetic_batches
from repro.dfpt.polarizability import polarizability_tensor
from repro.dfpt.response import DFPTSolver, ResponseResult
from repro.dft.scf import GroundState, SCFDriver
from repro.errors import ExperimentError
from repro.grids.batching import GridBatch
from repro.mapping.strategies import (
    BatchAssignment,
    load_balancing_mapping,
    locality_enhancing_mapping,
)
from repro.runtime.machines import MachineSpec
from repro.utils.timing import PhaseTimer


@dataclass
class PhysicsResult:
    """Outcome of a real (laptop-scale) DFPT run.

    ``responses`` holds the three converged
    :class:`~repro.dfpt.response.ResponseResult` objects (x, y, z) the
    tensor was read from — by reference, never copied — so consumers
    that need response matrices or iteration counts read them here
    instead of re-running the CPSCF loop.
    """

    ground_state: GroundState
    polarizability: np.ndarray
    phase_seconds: Dict[str, float]
    cpscf_iterations_per_direction: List[int] = field(default_factory=list)
    backend_profile: Optional["BackendProfile"] = None
    verify_report: Optional["VerifyReport"] = None
    responses: List[ResponseResult] = field(default_factory=list)


def run_physics(
    structure: Structure,
    settings: RunSettings,
    charge: int = 0,
    *,
    backend: Union[str, "ExecutionBackend", None] = None,
    substrate: Optional["Substrate"] = None,
) -> PhysicsResult:
    """The SCF -> CPSCF -> polarizability pipeline, start to finish.

    :meth:`PerturbationSimulator.run_physics` and every physics wave's
    groups (:func:`~repro.fleet.run_wave`) call it, so every consumer
    executes the same floating-point sequence.  *substrate* injects a
    shared :func:`~repro.dft.hamiltonian.build_substrate` result.
    """
    timer = PhaseTimer()
    sub = substrate
    driver = SCFDriver(
        structure,
        settings,
        charge=charge,
        timer=timer,
        backend=backend,
        basis=sub.basis if sub else None,
        grid=sub.grid if sub else None,
        batches=sub.batches if sub else None,
    )
    gs = driver.run()
    solver = DFPTSolver(gs, settings.cpscf, timer=timer, verifier=driver.verifier)
    responses = solver.solve_all()
    alpha = polarizability_tensor(gs, responses=responses)
    if driver.verifier is not None:
        driver.verifier.run_phase("polarizability", polarizability=alpha)
    return PhysicsResult(
        ground_state=gs,
        polarizability=alpha,
        phase_seconds=timer.as_dict(),
        cpscf_iterations_per_direction=[r.iterations for r in responses],
        backend_profile=driver.backend.profile,
        verify_report=driver.verifier.report if driver.verifier else None,
        responses=responses,
    )


@dataclass
class SimulationReport:
    """Outcome of one modeled configuration (machine, ranks, flags)."""

    machine: str
    n_ranks: int
    flags: OptimizationFlags
    n_atoms: int
    n_basis: int
    per_cycle_seconds: Dict[str, float]
    init_seconds: float
    memory_per_rank_bytes: int
    splines_per_rank: int
    points_per_rank: int
    comm_detail: Dict[str, float]

    @property
    def cycle_seconds(self) -> float:
        return sum(self.per_cycle_seconds.values())


class PerturbationSimulator:
    """Bind a structure + settings; run physics or scale models."""

    def __init__(
        self,
        structure: Structure,
        settings: Optional[RunSettings] = None,
        charge: int = 0,
        backend: Union[str, "ExecutionBackend", None] = None,
    ) -> None:
        self.structure = structure
        self.settings = settings or get_settings("light")
        self.charge = charge
        self.backend = backend
        self._workload: Optional[Workload] = None
        self._batches: Optional[Sequence[GridBatch]] = None
        self._assignments: Dict[tuple, BatchAssignment] = {}
        self._rank_quantities: Dict[tuple, tuple] = {}
        self._memory_model = None

    # ------------------------------------------------------------------
    # Real physics (small systems)
    # ------------------------------------------------------------------
    def run_physics(self) -> PhysicsResult:
        """Ground-state SCF + CPSCF for all three directions.

        Intended for molecules up to a few tens of atoms; the grid and
        basis grow quadratically beyond that.
        """
        return run_physics(
            self.structure, self.settings, self.charge, backend=self.backend
        )

    # ------------------------------------------------------------------
    # Scale modeling
    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        if self._workload is None:
            self._workload = build_workload(self.structure, self.settings)
        return self._workload

    @property
    def batches(self) -> Sequence[GridBatch]:
        """Summary batches shared by every modeled configuration."""
        if self._batches is None:
            self._batches = synthetic_batches(self.workload)
        return self._batches

    def assignment(self, n_ranks: int, locality: bool) -> BatchAssignment:
        """Cached batch->rank mapping for one (ranks, strategy) pair."""
        key = (n_ranks, locality)
        if key not in self._assignments:
            fn = locality_enhancing_mapping if locality else load_balancing_mapping
            self._assignments[key] = fn(self.batches, n_ranks)
        return self._assignments[key]

    def phase_model(
        self,
        machine: MachineSpec,
        n_ranks: int,
        flags: OptimizationFlags,
        use_accelerator: bool = True,
    ) -> PhaseModel:
        """The priced model of one configuration.

        What the mapping alone fixes (``PhaseModel.rank_quantities``) is
        derived once per (ranks, strategy) pair, like :meth:`assignment`:
        machines and flag sets priced under one mapping share it.
        """
        if self._memory_model is None:
            from repro.mapping.memory_model import HamiltonianMemoryModel

            self._memory_model = HamiltonianMemoryModel(self.structure)
        key = (n_ranks, flags.locality_mapping)
        model = PhaseModel(
            workload=self.workload,
            machine=machine,
            n_ranks=n_ranks,
            flags=flags,
            batches=self.batches,
            assignment=self.assignment(*key),
            use_accelerator=use_accelerator,
            memory_model=self._memory_model,
            rank_quantities=self._rank_quantities.get(key),
        )
        self._rank_quantities[key] = model.rank_quantities
        return model

    def run_model(
        self,
        machine: MachineSpec,
        n_ranks: int,
        flags: Optional[OptimizationFlags] = None,
        use_accelerator: bool = True,
    ) -> SimulationReport:
        """Price one configuration at scale."""
        flags = flags or OptimizationFlags.all()
        if len(self.batches) < n_ranks:
            raise ExperimentError(
                f"{len(self.batches)} batches cannot feed {n_ranks} ranks; "
                "reduce ranks or grid batch size"
            )
        model = self.phase_model(machine, n_ranks, flags, use_accelerator)
        bd: PhaseBreakdown = model.breakdown()
        return SimulationReport(
            machine=machine.name,
            n_ranks=n_ranks,
            flags=flags,
            n_atoms=self.workload.n_atoms,
            n_basis=self.workload.n_basis,
            per_cycle_seconds=bd.per_cycle,
            init_seconds=bd.init,
            memory_per_rank_bytes=model.memory_per_rank,
            splines_per_rank=model.splines_per_rank,
            points_per_rank=model.points_per_rank,
            comm_detail=bd.comm_detail,
        )
