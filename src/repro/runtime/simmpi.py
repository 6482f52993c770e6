"""In-process SPMD simulator: rank-local buffers + bit-exact collectives.

:class:`SimCluster` lays ranks out over a machine's nodes;
:class:`SimComm` executes collectives over *lists of per-rank numpy
arrays* (index = rank).  Numerics are real — reductions are performed
on the actual data so parallel decompositions can be asserted equal to
serial references — while every call also charges the machine's cost
model and updates byte/message counters for the scaling figures.

When the cluster carries a :class:`~repro.runtime.faults.FaultPlan`,
every collective first consults it: injected rank failures are healed
by a modeled checkpoint-restore, corrupted/dropped messages and
transient errors are retried with exponential backoff, stragglers add
idle time — all recorded in :class:`CommStats` and as
:class:`~repro.runtime.faults.FaultEvent` entries on the cluster, so
degradation is observable in traces and reports.  Retries that exhaust
the :class:`~repro.runtime.faults.RetryPolicy` budget raise
:class:`~repro.errors.CollectiveTimeoutError`; callers (the reduction
schemes) respond by degrading to a simpler algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.errors import CollectiveTimeoutError, CommunicationError, RankFailureError
from repro.obs.tracer import obs_counter, obs_event, obs_span
from repro.runtime.costmodel import CommCostModel
from repro.runtime.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.runtime.machines import MachineSpec


@dataclass
class CommStats:
    """Accumulated communication accounting for one communicator."""

    calls: int = 0
    messages: int = 0
    bytes_moved: int = 0
    model_time: float = 0.0
    # -- resilience accounting -----------------------------------------
    retries: int = 0
    rank_failures: int = 0
    corrupted_collectives: int = 0
    dropped_messages: int = 0
    straggler_events: int = 0
    backoff_time: float = 0.0
    recovery_time: float = 0.0
    straggler_time: float = 0.0
    degradations: List[str] = field(default_factory=list)

    def charge(self, messages: int, nbytes: int, seconds: float) -> None:
        self.calls += 1
        self.messages += messages
        self.bytes_moved += nbytes
        self.model_time += seconds

    def merged(self, other: "CommStats") -> "CommStats":
        return CommStats(
            calls=self.calls + other.calls,
            messages=self.messages + other.messages,
            bytes_moved=self.bytes_moved + other.bytes_moved,
            model_time=self.model_time + other.model_time,
            retries=self.retries + other.retries,
            rank_failures=self.rank_failures + other.rank_failures,
            corrupted_collectives=self.corrupted_collectives
            + other.corrupted_collectives,
            dropped_messages=self.dropped_messages + other.dropped_messages,
            straggler_events=self.straggler_events + other.straggler_events,
            backoff_time=self.backoff_time + other.backoff_time,
            recovery_time=self.recovery_time + other.recovery_time,
            straggler_time=self.straggler_time + other.straggler_time,
            degradations=self.degradations + other.degradations,
        )


class SimCluster:
    """N MPI ranks laid out over a machine's nodes (contiguous blocks).

    The cluster owns the run-wide fault state: the plan, the retry
    policy collectives obey, the set of currently failed ranks, an
    aggregate :class:`CommStats` merged over every communicator, and
    the ordered log of injected :class:`FaultEvent`\\ s.
    """

    def __init__(
        self,
        machine: MachineSpec,
        n_ranks: int,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if n_ranks < 1:
            raise CommunicationError(f"cluster needs >= 1 rank, got {n_ranks}")
        self.machine = machine
        self.n_ranks = n_ranks
        self.n_nodes = machine.nodes_for(n_ranks)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.failed_ranks: Set[int] = set()
        self.stats = CommStats()
        self.fault_events: List[FaultEvent] = []
        self._collective_seq = 0
        self._shm_seq = 0

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

    # ------------------------------------------------------------------
    # Fault bookkeeping
    # ------------------------------------------------------------------
    def next_collective_index(self) -> int:
        """Cluster-wide sequence number of the next collective call."""
        i = self._collective_seq
        self._collective_seq += 1
        return i

    def next_shm_index(self) -> int:
        """Cluster-wide sequence number of the next shm-window synthesis."""
        i = self._shm_seq
        self._shm_seq += 1
        return i

    def fail_rank(self, rank: int) -> None:
        """Mark one rank dead (fault injection)."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"rank {rank} out of range")
        self.failed_ranks.add(rank)

    def recover_rank(self, rank: int, state_bytes: float = 0.0) -> float:
        """Checkpoint-restore a failed rank; returns the modeled seconds.

        The replacement process re-fetches the rank's state (the last
        converged cycle's buffers) from a peer over the inter-node
        fabric, plus a fixed process-restart latency.
        """
        if rank not in self.failed_ranks:
            raise RankFailureError(
                f"rank {rank} is not failed; nothing to recover", rank=rank
            )
        self.failed_ranks.discard(rank)
        return CommCostModel(self.machine).rank_recovery(state_bytes)

    def record_event(self, event: FaultEvent) -> None:
        self.fault_events.append(event)

    def record_degradation(self, description: str) -> None:
        """Note a fallback path taken by a communication scheme."""
        self.stats.degradations.append(description)
        obs_event("degradation", category="fault", detail=description)


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

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _charge(self, messages: int, nbytes: int, seconds: float) -> None:
        self.stats.charge(messages, nbytes, seconds)
        self.cluster.stats.charge(messages, nbytes, seconds)
        obs_counter("comm.collectives")
        obs_counter("comm.messages", messages)
        obs_counter("comm.bytes_moved", nbytes)

    def _bump(self, attr: str, amount=1) -> None:
        for stats in (self.stats, self.cluster.stats):
            setattr(stats, attr, getattr(stats, attr) + amount)
        if isinstance(amount, int):
            obs_counter(f"comm.{attr}", amount)

    def _resilient(self, op_name: str, nbytes: int, execute: Callable):
        """Run one collective body under the cluster's fault plan.

        Fault-free clusters pay nothing.  Otherwise each attempt first
        asks the plan for a verdict: stragglers delay but succeed, rank
        failures are healed by checkpoint-restore and retried, damaged
        or lost payloads are retried with exponential backoff, and a
        retry budget/timeout overrun raises
        :class:`~repro.errors.CollectiveTimeoutError` so callers can
        degrade to a simpler scheme.
        """
        plan = self.cluster.fault_plan
        if plan is None:
            return execute()
        policy = self.cluster.retry_policy
        call_index = self.cluster.next_collective_index()
        site = f"{op_name}[{call_index}]"
        backoff_total = 0.0
        attempts = 0
        for attempt in range(policy.max_retries + 1):
            attempts = attempt + 1
            event = plan.collective_fault(site, call_index, attempt, self.ranks)
            if event is None:
                return execute()
            if event.kind == "straggler":
                event = replace(event, delay=max(event.delay, 0.0))
                self._record(event)
                self._bump("straggler_events")
                self._bump("straggler_time", event.delay)
                self._bump("model_time", event.delay)
                return execute()
            if event.kind == "rank_failure":
                self.cluster.fail_rank(event.rank)
                recovery = self.cluster.recover_rank(event.rank, nbytes)
                self._bump("rank_failures")
                self._bump("recovery_time", recovery)
                self._bump("model_time", recovery)
            elif event.kind == "message_corruption":
                self._bump("corrupted_collectives")
            elif event.kind == "message_drop":
                self._bump("dropped_messages")
            backoff = policy.backoff(attempt)
            backoff_total += backoff
            self._record(replace(event, delay=backoff))
            self._bump("retries")
            self._bump("backoff_time", backoff)
            self._bump("model_time", backoff)
            if backoff_total > policy.timeout:
                raise CollectiveTimeoutError(
                    f"{site} exceeded the {policy.timeout:.3g}s retry timeout "
                    f"after {attempts} attempts",
                    site=site,
                    attempts=attempts,
                )
        raise CollectiveTimeoutError(
            f"{site} still failing after {policy.max_retries} retries",
            site=site,
            attempts=attempts,
        )

    def _record(self, event: FaultEvent) -> None:
        self.cluster.record_event(event)
        obs_event(
            event.kind, category="fault",
            site=event.site, rank=event.rank, delay=event.delay,
        )

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

        def execute() -> np.ndarray:
            result = arrs[0].copy()
            for a in arrs[1:]:
                result = op(result, a)
            t = self.cost.allreduce(self.size, int(result.nbytes))
            self._charge(
                messages=2 * (self.size - 1), nbytes=int(result.nbytes), seconds=t
            )
            obs_counter("comm.bytes_reduced", int(result.nbytes))
            return result

        with obs_span("allreduce", category="comm", ranks=self.size, nbytes=nbytes):
            return self._resilient("allreduce", nbytes, execute)

    def bcast(self, buffer: np.ndarray, root_to_all: bool = True) -> List[np.ndarray]:
        """Broadcast one buffer to every rank (returns per-rank copies)."""
        arr = np.asarray(buffer)
        nbytes = int(arr.nbytes)

        def execute() -> List[np.ndarray]:
            t = self.cost.allreduce(self.size, nbytes) * 0.5  # tree bcast ~ half
            self._charge(messages=self.size - 1, nbytes=nbytes, seconds=t)
            return [arr.copy() for _ in self.ranks]

        with obs_span("bcast", category="comm", ranks=self.size, nbytes=nbytes):
            return self._resilient("bcast", nbytes, execute)

    def gather(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank buffers on a virtual root."""
        arrs = [np.asarray(b) for b in buffers]
        if len(arrs) != self.size:
            raise CommunicationError(
                f"{len(arrs)} buffers for a {self.size}-rank communicator"
            )
        nbytes = int(sum(a.nbytes for a in arrs))

        def execute() -> np.ndarray:
            t = self.cost.allreduce(self.size, nbytes / max(self.size, 1))
            self._charge(messages=self.size - 1, nbytes=nbytes, seconds=t)
            return np.concatenate([a.ravel() for a in arrs])

        with obs_span("gather", category="comm", ranks=self.size, nbytes=nbytes):
            return self._resilient("gather", nbytes, execute)

    def barrier(self) -> None:
        """Synchronize all ranks (cost only)."""

        def execute() -> None:
            t = self.cost.barrier(self.size)
            self._charge(messages=self.size, nbytes=0, seconds=t)

        with obs_span("barrier", category="comm", ranks=self.size):
            return self._resilient("barrier", 0, execute)

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
