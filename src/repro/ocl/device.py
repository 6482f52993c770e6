"""The simulated accelerator: prices every launch and counts it.

One :class:`Device` instance models one accelerator (a Sunway core
group or an AMD GPU).  ``estimate`` prices one launch from the
kernel's declarations; ``launch`` prices it *and* charges it to the
device's counters, and ``transfer`` charges host<->device bytes.  The
numerics themselves run on the host, in the shared view loops of
:mod:`repro.backends.base`.
"""

from __future__ import annotations

from repro.ocl.kernel import Kernel, LaunchReport, NDRange
from repro.runtime.machines import AcceleratorSpec


class Device:
    """A priced accelerator model."""

    def __init__(self, spec: AcceleratorSpec) -> None:
        self.spec = spec
        self.n_launches = 0
        self.modeled_time = 0.0
        self.bytes_transferred = 0

    def transfer(self, nbytes: int) -> None:
        """Charge *nbytes* moved between host and device memory."""
        self.bytes_transferred += int(nbytes)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def estimate(self, kernel: Kernel, ndrange: NDRange) -> LaunchReport:
        """Price one launch without charging it."""
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

    def launch(self, kernel: Kernel, ndrange: NDRange) -> LaunchReport:
        """Price one launch and charge it to the device's counters."""
        report = self.estimate(kernel, ndrange)
        self.n_launches += 1
        self.modeled_time += report.total_time
        return report

    # ------------------------------------------------------------------
    def rma_supported(self, nbytes: int) -> bool:
        """Can *nbytes* be shared on-chip via RMA (Section 4.2.1)?"""
        return 0 < nbytes <= self.spec.rma_max_bytes
