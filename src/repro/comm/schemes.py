"""Executable + estimable reduction schemes for ``rho_multipole``.

The data model mirrors the artifact: the multipole array has ``n_rows``
independent rows (one per atom) of ``row_bytes`` each, every rank holds
a partial contribution to every row, and all copies must be synthesized
(summed) on all ranks after the response-density phase.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.runtime.costmodel import CommCostModel
from repro.runtime.machines import MachineSpec
from repro.runtime.shm import SharedWindow
from repro.runtime.simmpi import SimCluster, SimComm

#: Section 3.2.1's heuristic: a pack may not exceed 30 MB.
PACK_LIMIT_BYTES: int = 30 * 1024 * 1024

#: The pack size the paper's experiments use ("packing every 512
#: MPIAllReduce invocations into one").
DEFAULT_ROWS_PER_PACK: int = 512


def rows_per_pack(row_bytes: int, limit: int = PACK_LIMIT_BYTES) -> int:
    """Largest c with c * row_bytes <= limit (at least 1)."""
    if row_bytes <= 0:
        raise CommunicationError(f"row_bytes must be positive, got {row_bytes}")
    return max(1, limit // row_bytes)


@dataclass
class ReductionReport:
    """A scheme's priced cost at one scale (Fig. 10's two bars)."""

    scheme: str
    n_collectives: int
    communication_time: float  # "communication among all data copies"
    local_update_time: float  # "update local data copies"
    peak_pack_bytes: int

    @property
    def total_time(self) -> float:
        return self.communication_time + self.local_update_time


class ReductionScheme(ABC):
    """Interface: execute on real data; price at scale."""

    name: str = "abstract"

    @abstractmethod
    def reduce(
        self, cluster: SimCluster, per_rank_rows: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Synthesize real data: the elementwise sum over ranks.

        ``per_rank_rows[r]`` is rank r's ``(n_rows, row_len)`` partial
        array.  The cost is :meth:`estimate`'s, the scheme's one price.
        """

    @abstractmethod
    def estimate(
        self, machine: MachineSpec, n_ranks: int, n_rows: int, row_bytes: int
    ) -> ReductionReport:
        """The scheme's cost at arbitrary scale."""


def _check_rows(per_rank_rows: Sequence[np.ndarray], n_ranks: int) -> List[np.ndarray]:
    if len(per_rank_rows) != n_ranks:
        raise CommunicationError(
            f"{len(per_rank_rows)} partial arrays for {n_ranks} ranks"
        )
    arrs = [np.asarray(a, dtype=float) for a in per_rank_rows]
    shape = arrs[0].shape
    if len(shape) != 2:
        raise CommunicationError(f"per-rank rows must be 2-D, got shape {shape}")
    for a in arrs[1:]:
        if a.shape != shape:
            raise CommunicationError("mismatched partial-array shapes")
    return arrs


class BaselineRowwiseAllreduce(ReductionScheme):
    """One AllReduce per row — the pre-optimization behaviour."""

    name = "baseline"

    def reduce(self, cluster: SimCluster, per_rank_rows: Sequence[np.ndarray]):
        arrs = _check_rows(per_rank_rows, cluster.n_ranks)
        comm = cluster.comm()
        n_rows = arrs[0].shape[0]
        out = np.empty_like(arrs[0])
        for row in range(n_rows):
            out[row] = comm.allreduce([a[row] for a in arrs])
        return out

    def estimate(self, machine, n_ranks, n_rows, row_bytes):
        cost = CommCostModel(machine)
        t = n_rows * cost.allreduce(n_ranks, row_bytes)
        return ReductionReport(
            scheme=self.name,
            n_collectives=n_rows,
            communication_time=t,
            local_update_time=0.0,
            peak_pack_bytes=row_bytes,
        )


class PackedAllreduce(ReductionScheme):
    """Rows fused into packs bounded by the 30 MB heuristic."""

    name = "packed"

    def __init__(
        self,
        pack_limit_bytes: int = PACK_LIMIT_BYTES,
        rows_cap: Optional[int] = DEFAULT_ROWS_PER_PACK,
    ) -> None:
        if pack_limit_bytes <= 0:
            raise CommunicationError("pack limit must be positive")
        self.pack_limit_bytes = pack_limit_bytes
        self.rows_cap = rows_cap

    def _pack_rows(self, row_bytes: int) -> int:
        c = rows_per_pack(row_bytes, self.pack_limit_bytes)
        if self.rows_cap is not None:
            c = min(c, self.rows_cap)
        return c

    def reduce(self, cluster: SimCluster, per_rank_rows: Sequence[np.ndarray]):
        arrs = _check_rows(per_rank_rows, cluster.n_ranks)
        comm = cluster.comm()
        n_rows = arrs[0].shape[0]
        c = self._pack_rows(int(arrs[0][0].nbytes))
        out = np.empty_like(arrs[0])
        for lo in range(0, n_rows, c):
            hi = min(lo + c, n_rows)
            out[lo:hi] = comm.allreduce([a[lo:hi] for a in arrs])
        return out

    def estimate(self, machine, n_ranks, n_rows, row_bytes):
        cost = CommCostModel(machine)
        c = self._pack_rows(row_bytes)
        n_calls = math.ceil(n_rows / c)
        last = n_rows - (n_calls - 1) * c
        t = (n_calls - 1) * cost.allreduce(n_ranks, c * row_bytes)
        t += cost.allreduce(n_ranks, last * row_bytes)
        return ReductionReport(
            scheme=self.name,
            n_collectives=n_calls,
            communication_time=t,
            local_update_time=0.0,
            peak_pack_bytes=min(c, n_rows) * row_bytes,
        )


class PackedHierarchicalAllreduce(PackedAllreduce):
    """Packed + intra-node SHM synthesis + inter-node leader collective."""

    name = "packed_hierarchical"

    @staticmethod
    def _require_shm(machine: MachineSpec) -> None:
        if not machine.shm_windows:
            raise CommunicationError(
                f"{machine.name} cannot run the hierarchical scheme "
                "(no MPI shared-memory windows)"
            )

    def reduce(self, cluster: SimCluster, per_rank_rows: Sequence[np.ndarray]):
        self._require_shm(cluster.machine)
        arrs = _check_rows(per_rank_rows, cluster.n_ranks)
        n_rows, row_len = arrs[0].shape
        c = self._pack_rows(int(arrs[0][0].nbytes))

        out = np.empty_like(arrs[0])
        leader_comm = cluster.comm().leader_subcomm()
        for lo in range(0, n_rows, c):
            hi = min(lo + c, n_rows)
            window = SharedWindow(cluster, shape=(hi - lo, row_len))
            node_partials = [
                window.accumulate_chunked(
                    node, [arrs[r][lo:hi] for r in cluster.ranks_of_node(node)]
                ).copy()
                for node in range(cluster.n_nodes)
            ]
            out[lo:hi] = leader_comm.allreduce(node_partials)
        return out

    def estimate(self, machine, n_ranks, n_rows, row_bytes):
        self._require_shm(machine)
        cost = CommCostModel(machine)
        m = min(machine.procs_per_node, n_ranks)
        if n_ranks % m != 0:
            m = math.gcd(n_ranks, m)
        c = self._pack_rows(row_bytes)
        n_calls = math.ceil(n_rows / c)

        local_total = 0.0
        inter_total = 0.0
        done = 0
        for _ in range(n_calls):
            rows = min(c, n_rows - done)
            done += rows
            local, inter = cost.hierarchical_allreduce(n_ranks, rows * row_bytes, m)
            local_total += local
            inter_total += inter
        return ReductionReport(
            scheme=self.name,
            n_collectives=n_calls,
            communication_time=inter_total,
            local_update_time=local_total,
            peak_pack_bytes=min(c, n_rows) * row_bytes,
        )
