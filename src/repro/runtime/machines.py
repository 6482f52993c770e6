"""Hardware presets for the paper's two evaluation machines.

*HPC #1* — the new-generation Sunway: one SW39010 heterogeneous CPU per
node (6 core groups of 1 managing + 64 accelerating cores; one MPI rank
per core group), a customized network, on-chip RMA among the 64 CPEs of
a core group limited to 64 KB transfers, and **no** MPI shared-memory
windows across core groups ("memories physically dis-connected").

*HPC #2* — an AMD-GPU cluster: 32-core x86 CPU + 4 MI50-class GPUs per
node (64 CUs x 64 lanes each; 8 MPI ranks share one GPU), InfiniBand,
MPI-3 SHM available, ~4 GB memory per MPI process.

The latency/bandwidth and device constants are calibrated so the
reproduced figures land in the paper's speedup ranges (DESIGN.md §6);
they are models, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CommunicationError


@dataclass(frozen=True)
class AcceleratorSpec:
    """Performance-model description of one accelerator (or core group).

    Attributes
    ----------
    name:
        Marketing-ish name for reports.
    compute_units:
        Independent compute units (CUs on AMD, CPE cluster = 1 group).
    lanes_per_unit:
        SIMT lanes (threads executing in lockstep) per compute unit.
    flop_rate:
        Sustained scalar FLOP/s per lane.
    kernel_launch_overhead:
        Host-side cost of one kernel launch (s).
    offchip_latency:
        Latency of an off-chip (device global) memory transaction (s).
    offchip_bandwidth:
        Off-chip streaming bandwidth (B/s) for the whole device.
    host_bandwidth:
        Host <-> device transfer bandwidth (PCIe on GPUs; the shared
        DDR path on Sunway core groups).
    rma_max_bytes:
        Largest on-chip RMA transfer among compute units; 0 when the
        device has no such mechanism (then vertical fusion cannot keep
        producer data on chip).
    persistent_buffers:
        Whether device buffers survive across kernel launches (GPUs:
        yes; Sunway CPE scratch: no) — the enabler of horizontal fusion.
    """

    name: str
    compute_units: int
    lanes_per_unit: int
    flop_rate: float
    kernel_launch_overhead: float
    offchip_latency: float
    offchip_bandwidth: float
    rma_max_bytes: int
    persistent_buffers: bool
    host_bandwidth: float = 1.6e10
    #: Memory-level parallelism: outstanding gathers each lane sustains.
    #: GPUs hide gather latency behind many wavefronts; the in-order
    #: CPEs of SW39010 cannot — which is why indirect-access elimination
    #: pays off more on HPC #1 (Fig. 11).
    memory_level_parallelism: int = 1


@dataclass(frozen=True)
class MachineSpec:
    """One supercomputer for the cost model.

    Attributes
    ----------
    procs_per_node:
        MPI ranks per node.
    ranks_per_accelerator:
        How many ranks share one accelerator (8 on HPC #2; 1 on HPC #1
        where each rank owns its core group).
    inter_alpha / inter_beta:
        Inter-node message latency (s) and inverse bandwidth (s/B).
    intra_alpha / intra_beta:
        Intra-node (shared-memory) latency and inverse bandwidth.
    shm_windows:
        MPI-3 shared-memory windows available across ranks of a node.
    per_proc_memory:
        Usable memory per MPI rank (B).
    collective_overhead_per_round:
        Software cost per tree round of a collective call (s) —
        models MPI-stack bookkeeping that grows with log2(P).
    collective_overhead_per_rank:
        Software cost per participating rank (s) — models the
        synchronization-skew component that grows linearly with P on
        some stacks (pronounced on HPC #2, where the paper's baseline
        AllReduce degrades hardest).
    nic_contention_cap:
        In a *flat* collective, up to this many same-node ranks compete
        for the node's NIC, inflating the bandwidth term; hierarchical
        schemes send one rank per node and escape it.
    """

    name: str
    procs_per_node: int
    ranks_per_accelerator: int
    inter_alpha: float
    inter_beta: float
    intra_alpha: float
    intra_beta: float
    shm_windows: bool
    per_proc_memory: int
    accelerator: AcceleratorSpec
    collective_overhead_per_round: float = 0.0
    collective_overhead_per_rank: float = 0.0
    nic_contention_cap: int = 4

    def nodes_for(self, n_ranks: int) -> int:
        """Nodes needed to host *n_ranks* (ceil division)."""
        if n_ranks < 1:
            raise CommunicationError(f"need at least one rank, got {n_ranks}")
        return -(-n_ranks // self.procs_per_node)


#: HPC #1 — new-generation Sunway, SW39010.
HPC1_SUNWAY = MachineSpec(
    name="HPC#1 (Sunway SW39010)",
    procs_per_node=6,
    ranks_per_accelerator=1,
    inter_alpha=6.0e-6,
    inter_beta=1.0 / 5.0e9,  # 5 GB/s injection per rank
    intra_alpha=1.2e-6,
    intra_beta=1.0 / 20.0e9,
    shm_windows=False,  # core-group memories are disjoint
    per_proc_memory=16 * 1024**3 // 6,
    accelerator=AcceleratorSpec(
        name="SW39010 core group (64 CPEs)",
        compute_units=64,
        lanes_per_unit=1,
        flop_rate=1.4e10,
        kernel_launch_overhead=8.0e-6,
        # CPEs have no data cache: a gather is a full DMA round trip.
        offchip_latency=1.0e-6,
        offchip_bandwidth=3.0e10,
        rma_max_bytes=64 * 1024,
        persistent_buffers=False,
        host_bandwidth=3.0e10,  # CPEs address the same DDR as the MPE
        memory_level_parallelism=1,
    ),
    collective_overhead_per_round=5.0e-6,
    collective_overhead_per_rank=4.5e-8,
    nic_contention_cap=2,
)

#: HPC #2 — AMD MI50-class GPU cluster.
HPC2_AMD = MachineSpec(
    name="HPC#2 (AMD MI50 GPUs)",
    procs_per_node=32,
    ranks_per_accelerator=8,
    inter_alpha=2.5e-6,
    inter_beta=1.0 / 1.2e10,  # InfiniBand
    intra_alpha=4.0e-7,
    intra_beta=1.0 / 1.0e11,  # aggregate node memory bandwidth
    shm_windows=True,
    per_proc_memory=4 * 1024**3,
    accelerator=AcceleratorSpec(
        name="AMD MI50 (64 CU)",
        compute_units=64,
        lanes_per_unit=64,
        flop_rate=1.6e9,
        kernel_launch_overhead=1.2e-5,
        offchip_latency=4.0e-8,  # effective, after wavefront latency hiding
        offchip_bandwidth=1.0e12,  # HBM2
        rma_max_bytes=0,
        persistent_buffers=True,
        host_bandwidth=1.6e10,  # PCIe 3 x16
        memory_level_parallelism=1,  # hiding folded into offchip_latency
    ),
    collective_overhead_per_round=4.0e-6,
    collective_overhead_per_rank=4.0e-7,
    nic_contention_cap=8,
)

#: One x86 core, as seen by one MPI rank in HPC #2's CPU-only mode
#: (Figs. 15-16 include "HPC #2 (CPU only)" curves).
HPC2_CPU_CORE = AcceleratorSpec(
    name="x86 core (CPU-only mode)",
    compute_units=1,
    lanes_per_unit=1,
    flop_rate=8.0e9,
    kernel_launch_overhead=0.0,
    offchip_latency=9.0e-8,
    offchip_bandwidth=4.0e9,  # per-core share of the socket
    rma_max_bytes=0,
    persistent_buffers=True,
    host_bandwidth=4.0e9,
    memory_level_parallelism=4,
)

_MACHINES = {"hpc1": HPC1_SUNWAY, "hpc2": HPC2_AMD}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a preset by short name (``"hpc1"`` / ``"hpc2"``)."""
    try:
        return _MACHINES[name.lower()]
    except KeyError:
        raise CommunicationError(
            f"unknown machine {name!r}; expected one of {sorted(_MACHINES)}"
        ) from None
