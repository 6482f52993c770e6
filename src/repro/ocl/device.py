"""The simulated accelerator: prices a launch.

One :class:`Device` models one accelerator (a Sunway core group or an
AMD GPU); ``estimate`` prices one launch from the kernel's declarations
and keeps no account (a run's launches and bytes are counted by its
bill, :mod:`repro.backends.device`).
"""

from __future__ import annotations

from repro.ocl.kernel import Kernel, LaunchReport, NDRange
from repro.runtime.machines import AcceleratorSpec


class Device:
    """A priced accelerator model."""

    def __init__(self, spec: AcceleratorSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def estimate(self, kernel: Kernel, ndrange: NDRange) -> LaunchReport:
        """Price one launch."""
        n_items = ndrange.n_items

        # Compute: items run on every lane of every compute unit.
        throughput = (
            self.spec.compute_units * self.spec.lanes_per_unit * self.spec.flop_rate
        )
        compute_time = kernel.flops_per_item * n_items / throughput

        stream_bytes = n_items * (
            kernel.bytes_read_per_item + kernel.bytes_written_per_item
        )
        stream_time = stream_bytes / self.spec.offchip_bandwidth

        # Indirect accesses: latency-bound gathers, overlapped across
        # compute units and (on latency-hiding devices) across the
        # outstanding requests each unit keeps in flight.
        n_indirect = n_items * kernel.indirect_accesses_per_item
        concurrency = self.spec.compute_units * self.spec.memory_level_parallelism
        indirect_time = n_indirect * self.spec.offchip_latency / concurrency

        return LaunchReport(
            kernel=kernel.name,
            n_items=n_items,
            launch_overhead=self.spec.kernel_launch_overhead,
            compute_time=compute_time,
            stream_time=stream_time,
            indirect_time=indirect_time,
        )

    # ------------------------------------------------------------------
    def rma_supported(self, nbytes: int) -> bool:
        """Can *nbytes* be shared on-chip via RMA (Section 4.2.1)?"""
        return 0 < nbytes <= self.spec.rma_max_bytes
