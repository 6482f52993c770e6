"""Kernel objects and the per-launch performance model.

A :class:`Kernel` is the traffic and compute declarations the device
model prices; the computation it stands for runs on the host.  The two-level NDRange of
Section 4.1 maps batches to work-groups and grid points to work-items.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import DeviceError


@dataclass(frozen=True)
class NDRange:
    """The execution space of one launch (Section 4.1's two levels).

    ``n_groups`` work-groups (one per batch) of ``items_per_group``
    work-items (one per grid point).
    """

    n_groups: int
    items_per_group: int

    def __post_init__(self) -> None:
        if self.n_groups < 1 or self.items_per_group < 1:
            raise DeviceError(
                f"NDRange must be positive, got {self.n_groups} x {self.items_per_group}"
            )

    @property
    def n_items(self) -> int:
        return self.n_groups * self.items_per_group


@dataclass
class Kernel:
    """One OpenCL kernel as the model sees it: its declared work.

    Attributes
    ----------
    name:
        Kernel identifier.
    flops_per_item:
        Arithmetic work per work-item.
    bytes_read_per_item / bytes_written_per_item:
        Streaming off-chip traffic per work-item.
    indirect_accesses_per_item:
        Number of data-dependent (``A[B[i]]``) off-chip reads per item;
        each costs a full off-chip latency instead of streaming.
    """

    name: str
    flops_per_item: float = 0.0
    bytes_read_per_item: float = 0.0
    bytes_written_per_item: float = 0.0
    indirect_accesses_per_item: float = 0.0

    def with_updates(self, **kwargs) -> "Kernel":
        """Copy with some declarations replaced (used by transforms)."""
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass
class LaunchReport:
    """Predicted cost decomposition of one kernel launch."""

    kernel: str
    n_items: int
    launch_overhead: float
    compute_time: float
    stream_time: float
    indirect_time: float

    @property
    def total_time(self) -> float:
        return (
            self.launch_overhead
            + self.compute_time
            + self.stream_time
            + self.indirect_time
        )
