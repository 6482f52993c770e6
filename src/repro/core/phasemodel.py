"""Per-phase execution-time synthesis at arbitrary scale.

Combines the real geometry-derived workload (points per rank, basis
reach, spline counts, multipole row sizes) with the device and
communication models to produce per-CPSCF-cycle times for the paper's
phases: ``DM``, ``Sumup``, ``Rho``, ``H``, ``Comm`` (plus the one-off
``init``).  Every optimization flag changes the inputs the way the
paper describes — locality changes access patterns and spline counts,
packing/hierarchy change the reduction, fusion/collapse/indirect change
the kernel declarations.

The shape of each term follows Sections 3-4; the dimensionless module
constants below are fitted so the reproduced figures land in the
paper's reported ranges (see EXPERIMENTS.md for measured-vs-paper
numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.basis.ylm import n_lm
from repro.comm.schemes import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
)
from repro.core.flags import OptimizationFlags
from repro.core.workload import Workload
from repro.errors import ExperimentError
from repro.grids.batching import GridBatch
from repro.mapping.memory_model import HamiltonianMemoryModel, atom_basis_counts
from repro.mapping.spline_model import spline_counts_per_rank
from repro.mapping.strategies import BatchAssignment
from repro.ocl.device import Device
from repro.ocl.fusion import horizontal_fusion, vertical_fusion
from repro.ocl.kernel import Kernel, NDRange
from repro.ocl.transforms import eliminate_indirect_accesses
from repro.runtime.machines import MachineSpec

#: The CPSCF phases of the artifact, in pipeline order.
CYCLE_PHASES = ("DM", "Sumup", "Rho", "H", "Comm")

#: Maximum angular momentum component of an atom (paper: p_max <= 9).
P_MAX = 9


# Dimensionless fit constants of the phase model.

#: Fraction of peak FLOP rate dense grid kernels sustain.
KERNEL_EFFICIENCY = 0.002
#: Extra CSR gathers per *basis pair* per point when the Hamiltonian is
#: sparse (locality mapping off): fetching one element through
#: (row_ptr, col, val) costs extra latency-bound reads — Fig. 9(b).
CSR_GATHERS_PER_PAIR = 0.005
#: Extra streamed bytes per basis pair for CSR index arrays.
CSR_BYTES_PER_PAIR = 4.0
#: Host-side DM GEMM-equivalent seconds per atom^1.2 (O(N^1.2)).
DM_SECONDS_PER_ATOM12 = 8.0e-3
#: ScaLAPACK-style collectives per cycle in the DM phase; priced with the
#: machine's collective model, so the DM share grows with rank count
#: exactly as the paper observes (22.5% -> 39.1%).
DM_COLLECTIVES_PER_CYCLE = 60
#: Payload of one DM collective (distributed P^(1) panel).
DM_MESSAGE_BYTES = 1.0e6
#: CSR element-access penalty cap for the un-optimized DM phase.
DM_CSR_LATENCY_PENALTY_CAP = 8.0
#: Far-field multipole flops per point ~ c * N_atoms^0.7 (O(N^1.7)).
FARFIELD_FLOPS_SCALE = 100.0
#: Producer flops per (atom, lm, knot): radial Poisson solve,
#: Adams-Moulton integration and spline coefficient factorization.
SPLINE_FLOPS_PER_KNOT = 30000.0
#: Fraction of producer work inside the width-limited (p, m)
#: Adams-Moulton nest (the part Section 4.4 collapses).
AM_LOOP_FRACTION = 0.1
#: Consumer interpolation flops per (point, near atom, lm).
INTERP_FLOPS = 18.0
#: Init (grid partition) flops per point (raw index arithmetic).
INIT_FLOPS_PER_POINT = 8000.0
#: Init indirect gathers per point before elimination (Section 4.3).
INIT_INDIRECT_PER_POINT = 4.0


def grid_kernel(
    name: str, flops_scale: float, basis_per_point: float, csr: bool = False
) -> Kernel:
    """Sumup/H-type kernel: per point, touch all *basis_per_point* pairs;
    *csr* prices a CSR Hamiltonian (locality mapping off).  The scale
    model and a run's device bill (:mod:`repro.backends.device`) price a
    grid phase with this one kernel."""
    nb = basis_per_point
    flops = flops_scale * nb * nb / KERNEL_EFFICIENCY
    indirect = 0.0
    extra_bytes = 0.0
    if csr:
        # CSR Hamiltonian: extra pointer-chasing and index traffic
        # for every matrix element touched.
        indirect = CSR_GATHERS_PER_PAIR * nb * nb
        extra_bytes = CSR_BYTES_PER_PAIR * nb * nb
    return Kernel(
        name=name,
        flops_per_item=flops,
        bytes_read_per_item=16.0 * nb + extra_bytes,
        bytes_written_per_item=8.0,
        indirect_accesses_per_item=indirect,
    )


def points_ndrange(n_points: int, n_batches: int) -> NDRange:
    """A work-group per batch, a work-item per point of the mean batch."""
    items = max(1, n_points // max(1, n_batches))
    return NDRange(n_groups=n_batches, items_per_group=items)


def dm_host_seconds(n_atoms: int, n_ranks: int) -> float:
    """The DM phase's host GEMM seconds per rank, O(N^1.2) (also the
    device bill's DM price)."""
    return DM_SECONDS_PER_ATOM12 * n_atoms**1.2 / n_ranks


@dataclass
class PhaseBreakdown:
    """Modeled seconds per phase for one configuration."""

    per_cycle: Dict[str, float]
    init: float
    comm_detail: Dict[str, float] = field(default_factory=dict)


class PhaseModel:
    """Prices one (workload, machine, ranks, flags) configuration."""

    def __init__(
        self,
        workload: Workload,
        machine: MachineSpec,
        n_ranks: int,
        flags: OptimizationFlags,
        batches: Sequence[GridBatch],
        assignment: BatchAssignment,
        use_accelerator: bool = True,
        memory_model: Optional[HamiltonianMemoryModel] = None,
        rank_quantities: Optional[tuple] = None,
    ) -> None:
        if n_ranks < 1:
            raise ExperimentError(f"need >= 1 rank, got {n_ranks}")
        self.w = workload
        self.machine = machine
        self.n_ranks = n_ranks
        self.flags = flags
        self.batches = batches
        self.assignment = assignment
        self._memory_model = memory_model or HamiltonianMemoryModel(
            workload.structure
        )
        self.use_accelerator = use_accelerator
        if use_accelerator:
            self.device = Device(machine.accelerator)
            # Unfused kernels of the ranks sharing one accelerator are
            # launched "in turn" (Fig. 7(b)), so each rank effectively
            # sees 1/g of the device.
            self._share = machine.ranks_per_accelerator
        else:
            from repro.runtime.machines import HPC2_CPU_CORE

            self.device = Device(HPC2_CPU_CORE)
            self._share = 1

        self.batches_per_rank = max(
            1, math.ceil(len(self.batches) / self.n_ranks)
        )
        #: What the mapping alone fixes, whatever the machine or flags —
        #: the expensive part of pricing at scale.  Opaque to callers:
        #: :meth:`PerturbationSimulator.phase_model` hands one model's to
        #: the next model priced under the same assignment.
        self.rank_quantities = rank_quantities or self._derive_rank_quantities()
        (
            self.points_per_rank,
            self.basis_per_point,
            self.near_atoms_per_point,
            self.splines_per_rank,
            self.memory_per_rank,
            self.dm_local_basis,
        ) = self.rank_quantities

    # ------------------------------------------------------------------
    def _derive_rank_quantities(self) -> tuple:
        pts = self.assignment.points_per_rank(self.batches)

        # Basis functions alive at a typical point: derived from the
        # batches' relevant-atom sets (sampled for big systems).
        counts = atom_basis_counts(self.w.structure)
        sample = self.batches[:: max(1, len(self.batches) // 128)]
        per_batch = [
            int(counts[list(b.relevant_atoms)].sum()) if b.relevant_atoms else 0
            for b in sample
        ]
        # Atoms whose multipole mesh reaches a typical point.
        rel_atoms = [len(b.relevant_atoms) for b in sample]

        # Spline constructions per rank under this mapping (Fig. 9(c)),
        # computed for the representative (max-loaded) rank only so huge
        # batch sets stay cheap.
        rank_ptr, ids = self.assignment.rank_ptr, self.assignment.batch_ids
        r = int(np.argmax(pts))
        sub = [self.batches[b] for b in ids[rank_ptr[r] : rank_ptr[r + 1]].tolist()]
        whole = np.array([0, len(sub)], dtype=np.int64)
        one_rank = BatchAssignment(self.assignment.strategy, 1, whole, np.arange(len(sub)))
        sc = spline_counts_per_rank(one_rank, sub, self.w.structure)
        # Memory footprint per rank (feasibility; Figs. 9(a), weak scaling).
        memory = self._memory_model.per_rank_bytes(self.assignment, self.batches)
        # Basis functions of the first rank with the most atoms (DM, locality off).
        dm_local_basis = 1
        if not self.flags.locality_mapping:
            atom_ptr, atoms = self.assignment.rank_atoms(self.batches)
            r = int(np.argmax(np.diff(atom_ptr)))
            dm_local_basis = max(1, int(counts[atoms[atom_ptr[r] : atom_ptr[r + 1]]].sum()))
        return (
            int(pts.max()),
            max(1.0, float(np.mean(per_batch))),
            max(1.0, float(np.mean(rel_atoms))),
            int(sc[0]),
            int(memory.max()),
            dm_local_basis,
        )

    # ------------------------------------------------------------------
    # Kernel catalog
    # ------------------------------------------------------------------
    def _rho_producer_kernel(self) -> Kernel:
        """Spline-coefficient producer, one work-item per (atom, lm).

        The Adams-Moulton sub-loop can only occupy ``p_max + 1`` lanes
        until collapsed to ``(p_max + 1)^2`` (Section 4.4); its lane
        under-utilization is folded into the flop count so the fusion
        transforms can treat the producer as one kernel.  This penalty
        is the loop collapse's one price (Fig. 13).
        """
        flops = SPLINE_FLOPS_PER_KNOT * self.w.spline_knots / KERNEL_EFFICIENCY
        lanes = self.device.spec.lanes_per_unit
        width = (P_MAX + 1) ** 2 if self.flags.loop_collapse else P_MAX + 1
        am_penalty = lanes / max(1.0, min(width, lanes))
        flops = flops * (
            (1.0 - AM_LOOP_FRACTION) + AM_LOOP_FRACTION * am_penalty
        )
        return Kernel(
            name="rho_producer_splines",
            flops_per_item=flops,
            bytes_read_per_item=8.0 * self.w.spline_knots,
            bytes_written_per_item=24.0 * self.w.spline_knots,
        )

    def _rho_consumer_kernel(self) -> Kernel:
        lm = n_lm(self.w.settings.l_max_hartree)
        near = INTERP_FLOPS * self.near_atoms_per_point * lm
        far = FARFIELD_FLOPS_SCALE * self.w.n_atoms**0.7
        return Kernel(
            name="rho_consumer_interp",
            flops_per_item=(near + far) / KERNEL_EFFICIENCY,
            bytes_read_per_item=12.0 * self.near_atoms_per_point,
            bytes_written_per_item=8.0,
        )

    def _init_kernel(self) -> Kernel:
        # Init is simple index arithmetic: raw flops, no efficiency
        # scaling — its cost is dominated by the indirect gathers.
        k = Kernel(
            name="grid_partition_init",
            flops_per_item=INIT_FLOPS_PER_POINT,
            bytes_read_per_item=48.0,
            bytes_written_per_item=16.0,
            indirect_accesses_per_item=INIT_INDIRECT_PER_POINT,
        )
        if self.flags.indirect_elimination:
            k = eliminate_indirect_accesses(k)
        return k

    # ------------------------------------------------------------------
    # Phase pricing
    # ------------------------------------------------------------------
    def _points_ndrange(self) -> NDRange:
        return points_ndrange(self.points_per_rank, self.batches_per_rank)

    def sumup_time(self) -> float:
        csr = not self.flags.locality_mapping
        t = self.device.estimate(
            grid_kernel("sumup_n1", 2.0, self.basis_per_point, csr),
            self._points_ndrange(),
        ).total_time
        return t * self._share

    def h_time(self) -> float:
        csr = not self.flags.locality_mapping
        t = self.device.estimate(
            grid_kernel("h1_integration", 3.0, self.basis_per_point, csr),
            self._points_ndrange(),
        ).total_time
        return t * self._share

    def rho_time(self) -> float:
        lm = n_lm(self.w.settings.l_max_hartree)
        producer = self._rho_producer_kernel()
        prod_range = NDRange(
            n_groups=max(1, self.splines_per_rank), items_per_group=lm
        )
        consumer = self._rho_consumer_kernel()
        cons_range = self._points_ndrange()

        intermediate = 24 * self.w.spline_knots * lm * max(1, self.splines_per_rank)
        if self.flags.kernel_fusion and self.use_accelerator:
            if self.machine.accelerator.persistent_buffers:
                rep = horizontal_fusion(
                    self.device,
                    producer,
                    prod_range,
                    consumer,
                    cons_range,
                    intermediate_bytes=intermediate,
                    group_size=self.machine.ranks_per_accelerator,
                )
                # One fused launch serves the whole accelerator group;
                # every rank's phase waits for it, so the per-rank wall
                # time is the fused pipeline itself.
                return rep.time_after
            rep = vertical_fusion(
                self.device,
                producer,
                prod_range,
                consumer,
                cons_range,
                intermediate_bytes=intermediate,
            )
            return rep.time_after * self._share
        t_prod = self.device.estimate(producer, prod_range).total_time
        t_cons = self.device.estimate(consumer, cons_range).total_time
        transfer = 2.0 * intermediate / self.device.spec.host_bandwidth
        return (t_prod + t_cons + transfer) * self._share

    def dm_time(self) -> float:
        from repro.runtime.costmodel import CommCostModel

        base = dm_host_seconds(self.w.n_atoms, self.n_ranks)
        cost = CommCostModel(self.machine)
        sync = DM_COLLECTIVES_PER_CYCLE * cost.allreduce(
            self.n_ranks, DM_MESSAGE_BYTES
        )
        t = base + sync
        if not self.flags.locality_mapping:
            # Global sparse CSR traversal: more elements touched and a
            # latency penalty per access (bounded by the cap).
            nnz_ratio = self._memory_model.global_sparse_nnz() / (
                self.n_ranks * float(self.dm_local_basis) ** 2
            )
            spec = self.device.spec
            gather = spec.offchip_latency / (
                spec.compute_units * spec.memory_level_parallelism
            )
            stream = 8.0 / spec.offchip_bandwidth
            penalty = min(
                DM_CSR_LATENCY_PENALTY_CAP, max(1.0, gather / stream / 8.0)
            )
            t = base * max(1.0, nnz_ratio) * penalty + sync
        return t

    def comm_time(self) -> tuple:
        """(total, detail) of the per-cycle collective costs."""
        if self.flags.packed_comm and self.flags.hierarchical_comm and (
            self.machine.shm_windows
        ):
            scheme = PackedHierarchicalAllreduce()
        elif self.flags.packed_comm:
            scheme = PackedAllreduce()
        else:
            scheme = BaselineRowwiseAllreduce()
        rep = scheme.estimate(
            self.machine,
            self.n_ranks,
            self.w.rho_multipole_rows,
            self.w.rho_multipole_row_bytes,
        )
        detail = {
            "scheme": rep.scheme,
            "communication": rep.communication_time,
            "local_update": rep.local_update_time,
        }
        return rep.total_time, detail

    def init_time(self) -> float:
        t = self.device.estimate(
            self._init_kernel(), self._points_ndrange()
        ).total_time
        return t * self._share

    def breakdown(self) -> PhaseBreakdown:
        """Full per-cycle phase times + one-off init."""
        comm, detail = self.comm_time()
        per_cycle = {
            "DM": self.dm_time(),
            "Sumup": self.sumup_time(),
            "Rho": self.rho_time(),
            "H": self.h_time(),
            "Comm": comm,
        }
        return PhaseBreakdown(
            per_cycle=per_cycle, init=self.init_time(), comm_detail=detail
        )
