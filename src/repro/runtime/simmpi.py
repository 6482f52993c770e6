"""In-process SPMD simulator: rank-local buffers + bit-exact collectives.

:class:`SimCluster` lays ranks out over a machine's nodes;
:class:`SimComm` executes collectives over *lists of per-rank numpy
arrays* (index = rank).  Numerics are real — reductions are performed
on the actual data so parallel decompositions can be asserted equal to
serial references.  Nothing is priced here: a reduction scheme's cost
is its ``estimate`` (:mod:`repro.comm.schemes`).  An in-process
collective cannot lose, tear or delay a message, so none is modeled:
every call runs its body once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.obs.tracer import obs_span
from repro.runtime.machines import MachineSpec


class SimCluster:
    """N MPI ranks laid out over a machine's nodes (contiguous blocks)."""

    def __init__(self, machine: MachineSpec, n_ranks: int) -> None:
        if n_ranks < 1:
            raise CommunicationError(f"cluster needs >= 1 rank, got {n_ranks}")
        self.machine = machine
        self.n_ranks = n_ranks
        self.n_nodes = machine.nodes_for(n_ranks)

    def node_of(self, rank: int) -> int:
        """Hosting node of one rank."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"rank {rank} out of range")
        return rank // self.machine.procs_per_node

    def ranks_of_node(self, node: int) -> range:
        """Ranks hosted on one node (the last node may be partial)."""
        if not 0 <= node < self.n_nodes:
            raise CommunicationError(
                f"node {node} out of range for a {self.n_nodes}-node cluster "
                f"({self.n_ranks} ranks, {self.machine.procs_per_node} per node)"
            )
        lo = node * self.machine.procs_per_node
        hi = min(lo + self.machine.procs_per_node, self.n_ranks)
        return range(lo, hi)

    def comm(self) -> "SimComm":
        """World communicator over all ranks."""
        return SimComm(self)


class SimComm:
    """Collectives over per-rank buffer lists."""

    def __init__(self, cluster: SimCluster, ranks: Optional[Sequence[int]] = None):
        self.cluster = cluster
        self.ranks = list(range(cluster.n_ranks)) if ranks is None else list(ranks)
        if not self.ranks:
            raise CommunicationError("communicator must contain at least one rank")

    @property
    def size(self) -> int:
        return len(self.ranks)

    def _check(self, buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(buffers) != self.size:
            raise CommunicationError(
                f"{len(buffers)} buffers for a {self.size}-rank communicator"
            )
        arrs = [np.asarray(b) for b in buffers]
        shape = arrs[0].shape
        for a in arrs[1:]:
            if a.shape != shape:
                raise CommunicationError(
                    f"mismatched buffer shapes: {a.shape} vs {shape}"
                )
        return arrs

    # ------------------------------------------------------------------
    # Collectives (bit-exact over the actual data)
    # ------------------------------------------------------------------
    def allreduce(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Sum all per-rank buffers; every rank gets the result.

        Reduction order is fixed (rank-ascending) so results are
        deterministic.  Returns one array (all ranks' copies are equal
        by definition; callers index it per rank if needed).
        """
        arrs = self._check(buffers)
        nbytes = int(arrs[0].nbytes)
        with obs_span("allreduce", category="comm", ranks=self.size, nbytes=nbytes):
            result = arrs[0].copy()
            for a in arrs[1:]:
                result = result + a
            return result

    # ------------------------------------------------------------------
    def leader_subcomm(self) -> "SimComm":
        """Communicator of each node's first rank."""
        seen = {}
        for r in self.ranks:
            node = self.cluster.node_of(r)
            if node not in seen:
                seen[node] = r
        return SimComm(self.cluster, [seen[n] for n in sorted(seen)])
