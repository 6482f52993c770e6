"""Shared machine/cluster factories for the test and bench harnesses.

The runtime, communication and verification suites all need small
:class:`~repro.runtime.machines.MachineSpec` variants and
:class:`~repro.runtime.cluster.SimCluster` instances.  These plain
factories are the single source of truth; ``tests/conftest.py`` and
``benchmarks/conftest.py`` wrap them as pytest fixtures, and library
code (e.g. :mod:`repro.verify.differential`) can call them directly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.runtime import HPC2_AMD, SimCluster
from repro.runtime.machines import MachineSpec


def make_machine(base: MachineSpec = HPC2_AMD, **overrides) -> MachineSpec:
    """Clone a machine preset with field overrides.

    ``make_machine(procs_per_node=4)`` derives from HPC#2; pass
    ``base=HPC1_SUNWAY`` to start from the other preset.  With no
    overrides the preset itself is returned (MachineSpec is frozen, so
    sharing is safe).
    """
    return replace(base, **overrides) if overrides else base


def make_cluster(
    n_ranks: int = 8, base: MachineSpec = HPC2_AMD, **machine_overrides
) -> SimCluster:
    """Build a small simulated cluster.

    ``make_cluster(8)`` gives 8 ranks on HPC#2; ``base=`` picks the
    preset and the other keywords are MachineSpec overrides
    (``procs_per_node=...``).
    """
    return SimCluster(make_machine(base, **machine_overrides), n_ranks)
