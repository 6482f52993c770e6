"""MPI-3 shared-memory window emulation (Section 3.2.2's enabler).

On machines with :attr:`MachineSpec.shm_windows`, the m ranks of a node
can map one array: the hierarchical reduction updates it chunk by chunk,
each rank owning one chunk per round, rounds sequenced by local
barriers — no write conflicts, one physical copy per node instead of m.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.runtime.simmpi import SimCluster


class SharedWindow:
    """One shared array per node of a cluster.

    The window stores real data: :meth:`accumulate_chunked` performs the
    paper's in-turn chunk synthesis and is verified bit-exact against a
    plain sum in the tests.
    """

    def __init__(self, cluster: SimCluster, shape, dtype=np.float64) -> None:
        if not cluster.machine.shm_windows:
            raise CommunicationError(
                f"{cluster.machine.name} does not support MPI shared-memory windows"
            )
        self.cluster = cluster
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._node_copies: List[np.ndarray] = [
            np.zeros(self.shape, dtype=self.dtype) for _ in range(cluster.n_nodes)
        ]

    def accumulate_chunked(
        self, node: int, contributions: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Synthesize m rank contributions into the node copy.

        The flat window is cut into m chunks; in round k, rank r adds its
        contribution's chunk ``(r + k) % m`` — every chunk is touched by
        exactly one rank per round, so no write conflicts occur, matching
        Fig. 6's scheme.  Returns the node copy (flattened view reshaped).
        """
        m = len(contributions)
        if m == 0:
            raise CommunicationError("no contributions to accumulate")
        target = self._node_copies[node].reshape(-1)
        flats = []
        for c in contributions:
            c = np.asarray(c, dtype=self.dtype).reshape(-1)
            if c.shape != target.shape:
                raise CommunicationError(
                    f"contribution shape {c.shape} != window shape {target.shape}"
                )
            flats.append(c)
        bounds = np.linspace(0, target.shape[0], m + 1, dtype=np.int64)
        for round_idx in range(m):  # rounds, separated by local barriers
            for rank_slot in range(m):
                chunk = (rank_slot + round_idx) % m
                lo, hi = bounds[chunk], bounds[chunk + 1]
                target[lo:hi] += flats[rank_slot][lo:hi]
        return self._node_copies[node]
