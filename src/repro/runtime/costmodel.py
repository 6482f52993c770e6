"""Alpha-beta communication cost model.

Standard LogP-flavoured estimates: a message of ``n`` bytes between two
ranks costs ``alpha + n * beta``; tree/ring collectives compose these.
The model distinguishes inter-node and intra-node legs using a
:class:`~repro.runtime.machines.MachineSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CommunicationError
from repro.runtime.machines import MachineSpec


def barrier_time(p: int, alpha: float) -> float:
    """Dissemination barrier: ``ceil(log2 p)`` rounds of latency."""
    if p < 1:
        raise CommunicationError(f"barrier needs p >= 1, got {p}")
    if p == 1:
        return 0.0
    return math.ceil(math.log2(p)) * alpha


def allreduce_time(p: int, nbytes: float, alpha: float, beta: float) -> float:
    """Rabenseifner-style allreduce estimate.

    ``log2(p)`` latency rounds plus reduce-scatter + allgather moving
    ``2 (p-1)/p * nbytes`` per rank.
    """
    if p < 1:
        raise CommunicationError(f"allreduce needs p >= 1, got {p}")
    if nbytes < 0:
        raise CommunicationError(f"negative buffer size: {nbytes}")
    if p == 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * alpha + 2.0 * (p - 1) / p * nbytes * beta


@dataclass(frozen=True)
class CommCostModel:
    """Machine-bound collective cost estimates.

    Methods return seconds for collectives over *p* ranks laid out
    contiguously on the machine's nodes.
    """

    machine: MachineSpec

    def _effective_alpha_beta(self, p: int) -> tuple:
        """Blend inter/intra constants by the rank layout.

        When all *p* ranks fit in one node only the intra-node fabric is
        used; otherwise the inter-node constants dominate the critical
        path of a tree collective.
        """
        if p <= self.machine.procs_per_node:
            return self.machine.intra_alpha, self.machine.intra_beta
        return self.machine.inter_alpha, self.machine.inter_beta

    def software_overhead(self, p: int) -> float:
        """Per-collective-call software cost (MPI-stack bookkeeping)."""
        if p <= 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        m = self.machine
        return (
            m.collective_overhead_per_round * rounds
            + m.collective_overhead_per_rank * p
        )

    def _contention(self, p: int) -> float:
        """NIC sharing factor of a flat inter-node collective."""
        ranks_per_node = min(p, self.machine.procs_per_node)
        return float(min(ranks_per_node, self.machine.nic_contention_cap))

    def allreduce(self, p: int, nbytes: float) -> float:
        """Flat (non-hierarchical) allreduce over p ranks.

        Includes per-call software overhead and NIC contention from all
        same-node ranks participating individually.
        """
        alpha, beta = self._effective_alpha_beta(p)
        if p > self.machine.procs_per_node:
            beta = beta * self._contention(p)
        return self.software_overhead(p) + allreduce_time(p, nbytes, alpha, beta)

    def intra_node_reduce(self, m: int, nbytes: float) -> float:
        """Shared-memory reduction among m ranks of one node.

        Models the paper's chunked in-turn update: the window is sliced
        into m chunks, each synthesized by one rank per round, with m
        local barriers sequencing the rounds.  Every rank streams the
        full buffer once and all m ranks contend for the node's memory
        bandwidth, so the wall time carries the factor m — the visible
        "update local data copies" bars of Fig. 10(b).
        """
        if not self.machine.shm_windows:
            raise CommunicationError(
                f"{self.machine.name} has no MPI shared-memory windows"
            )
        if m < 1:
            raise CommunicationError(f"need m >= 1, got {m}")
        if m == 1:
            return 0.0
        stream = m * nbytes * self.machine.intra_beta
        barriers = m * barrier_time(m, self.machine.intra_alpha)
        return stream + barriers

    def hierarchical_allreduce(self, p: int, nbytes: float, m: int) -> tuple:
        """(local_update_time, inter_node_time) of the hierarchical scheme.

        m ranks per node share one copy; the global collective then runs
        over p/m participants, and results are read back through the
        shared window (charged as one more local stream).
        """
        if p % m != 0:
            raise CommunicationError(f"p={p} not divisible by node group m={m}")
        local = self.intra_node_reduce(m, nbytes)
        leaders = p // m
        # One rank per node: no NIC contention, and far fewer
        # participants paying software overhead.
        inter = self.software_overhead(leaders) + allreduce_time(
            leaders, nbytes, self.machine.inter_alpha, self.machine.inter_beta
        )
        readback = nbytes * self.machine.intra_beta
        return local + readback, inter
