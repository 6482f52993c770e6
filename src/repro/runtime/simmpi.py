"""In-process SPMD simulator: rank-local buffers + bit-exact collectives.

:class:`SimCluster` lays ranks out over a machine's nodes;
:class:`SimComm` executes collectives over *lists of per-rank numpy
arrays* (index = rank).  Numerics are real — reductions are performed
on the actual data so parallel decompositions can be asserted equal to
serial references — while every call also charges the machine's cost
model and updates byte/message counters for the scaling figures.
An in-process collective cannot lose, tear or delay a message, so none
is modeled: every call runs its body once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.obs.tracer import obs_counter, obs_span
from repro.runtime.costmodel import CommCostModel
from repro.runtime.machines import MachineSpec


@dataclass
class CommStats:
    """Accumulated communication accounting for one communicator."""

    calls: int = 0
    messages: int = 0
    bytes_moved: int = 0
    model_time: float = 0.0

    def charge(self, messages: int, nbytes: int, seconds: float) -> None:
        self.calls += 1
        self.messages += messages
        self.bytes_moved += nbytes
        self.model_time += seconds


class SimCluster:
    """N MPI ranks laid out over a machine's nodes (contiguous blocks).

    ``stats`` aggregates the :class:`CommStats` of every communicator.
    """

    def __init__(self, machine: MachineSpec, n_ranks: int) -> None:
        if n_ranks < 1:
            raise CommunicationError(f"cluster needs >= 1 rank, got {n_ranks}")
        self.machine = machine
        self.n_ranks = n_ranks
        self.n_nodes = machine.nodes_for(n_ranks)
        self.stats = CommStats()

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

    def accelerator_group_of(self, rank: int) -> int:
        """Which accelerator (globally numbered) this rank shares."""
        return rank // self.machine.ranks_per_accelerator

    def comm(self) -> "SimComm":
        """World communicator over all ranks."""
        return SimComm(self)


class SimComm:
    """Collectives over per-rank buffer lists, with cost accounting."""

    def __init__(self, cluster: SimCluster, ranks: Optional[Sequence[int]] = None):
        self.cluster = cluster
        self.ranks = list(range(cluster.n_ranks)) if ranks is None else list(ranks)
        if not self.ranks:
            raise CommunicationError("communicator must contain at least one rank")
        self.cost = CommCostModel(cluster.machine)
        self.stats = CommStats()

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

    def _charge(self, messages: int, nbytes: int, seconds: float) -> None:
        self.stats.charge(messages, nbytes, seconds)
        self.cluster.stats.charge(messages, nbytes, seconds)
        obs_counter("comm.collectives")
        obs_counter("comm.messages", messages)
        obs_counter("comm.bytes_moved", nbytes)

    # ------------------------------------------------------------------
    # Collectives (bit-exact over the actual data)
    # ------------------------------------------------------------------
    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
    ) -> np.ndarray:
        """Reduce all per-rank buffers with *op*; every rank gets the result.

        Reduction order is fixed (rank-ascending) so results are
        deterministic.  Returns one array (all ranks' copies are equal
        by definition; callers index it per rank if needed).
        """
        arrs = self._check(buffers)
        nbytes = int(arrs[0].nbytes)
        with obs_span("allreduce", category="comm", ranks=self.size, nbytes=nbytes):
            result = arrs[0].copy()
            for a in arrs[1:]:
                result = op(result, a)
            t = self.cost.allreduce(self.size, int(result.nbytes))
            self._charge(
                messages=2 * (self.size - 1), nbytes=int(result.nbytes), seconds=t
            )
            obs_counter("comm.bytes_reduced", int(result.nbytes))
            return result

    def bcast(self, buffer: np.ndarray, root_to_all: bool = True) -> List[np.ndarray]:
        """Broadcast one buffer to every rank (returns per-rank copies)."""
        arr = np.asarray(buffer)
        nbytes = int(arr.nbytes)
        with obs_span("bcast", category="comm", ranks=self.size, nbytes=nbytes):
            t = self.cost.allreduce(self.size, nbytes) * 0.5  # tree bcast ~ half
            self._charge(messages=self.size - 1, nbytes=nbytes, seconds=t)
            return [arr.copy() for _ in self.ranks]

    def gather(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank buffers on a virtual root."""
        arrs = [np.asarray(b) for b in buffers]
        if len(arrs) != self.size:
            raise CommunicationError(
                f"{len(arrs)} buffers for a {self.size}-rank communicator"
            )
        nbytes = int(sum(a.nbytes for a in arrs))
        with obs_span("gather", category="comm", ranks=self.size, nbytes=nbytes):
            t = self.cost.allreduce(self.size, nbytes / max(self.size, 1))
            self._charge(messages=self.size - 1, nbytes=nbytes, seconds=t)
            return np.concatenate([a.ravel() for a in arrs])

    def barrier(self) -> None:
        """Synchronize all ranks (cost only)."""
        with obs_span("barrier", category="comm", ranks=self.size):
            t = self.cost.barrier(self.size)
            self._charge(messages=self.size, nbytes=0, seconds=t)

    # ------------------------------------------------------------------
    def node_subcomms(self) -> List["SimComm"]:
        """One sub-communicator per node (for hierarchical schemes)."""
        by_node = {}
        for r in self.ranks:
            by_node.setdefault(self.cluster.node_of(r), []).append(r)
        return [SimComm(self.cluster, ranks) for _, ranks in sorted(by_node.items())]

    def leader_subcomm(self) -> "SimComm":
        """Communicator of each node's first rank."""
        seen = {}
        for r in self.ranks:
            node = self.cluster.node_of(r)
            if node not in seen:
                seen[node] = r
        return SimComm(self.cluster, [seen[n] for n in sorted(seen)])
