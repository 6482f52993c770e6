"""Simulated HPC runtime: cluster topology, MPI collectives, cost model.

The paper's experiments ran on two supercomputers we cannot access;
this package substitutes an in-process SPMD simulator whose collectives
operate on real numpy buffers (bit-exact numerics), hardware presets for
the two machines, and the alpha-beta latency/bandwidth model the
reduction schemes' estimates (:mod:`repro.comm`) price collectives with.
"""

from repro.runtime.machines import (
    AcceleratorSpec,
    MachineSpec,
    HPC1_SUNWAY,
    HPC2_AMD,
    machine_by_name,
)
from repro.runtime.costmodel import (
    CommCostModel,
    allreduce_time,
    barrier_time,
)
from repro.runtime.simmpi import SimCluster, SimComm
from repro.runtime.shm import SharedWindow

__all__ = [
    "AcceleratorSpec",
    "MachineSpec",
    "HPC1_SUNWAY",
    "HPC2_AMD",
    "machine_by_name",
    "CommCostModel",
    "allreduce_time",
    "barrier_time",
    "SimCluster",
    "SimComm",
    "SharedWindow",
]
