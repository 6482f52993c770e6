"""Simulated OpenCL device layer (Section 4).

Kernels are real Python callables executed over explicit device
buffers — numerics are exact — while a per-launch performance model
(launch overhead, compute width, off-chip traffic, indirect-access
latency) prices each invocation on a device preset.  The paper's four
kernel optimizations are implemented as transforms over these kernel
objects:

* vertical fusion via on-chip RMA (4.2.1, Sunway),
* horizontal fusion across ranks sharing a GPU (4.2.2, AMD),
* indirect-access elimination via a prebuilt gather map (4.3),
* fine-grained parallelization by loop collapse (4.4).
"""

from repro.ocl.buffers import DeviceBuffer, AddressSpace
from repro.ocl.kernel import Kernel, NDRange, LaunchReport
from repro.ocl.device import Device
from repro.ocl.transforms import (
    collapse_pm_loop,
    expand_pm_index,
    collapse_kernel,
    build_gather_map,
    apply_gather_map,
    eliminate_indirect_accesses,
)
from repro.ocl.fusion import (
    vertical_fusion,
    horizontal_fusion,
    FusionReport,
)

__all__ = [
    "DeviceBuffer",
    "AddressSpace",
    "Kernel",
    "NDRange",
    "LaunchReport",
    "Device",
    "collapse_pm_loop",
    "expand_pm_index",
    "collapse_kernel",
    "build_gather_map",
    "apply_gather_map",
    "eliminate_indirect_accesses",
    "vertical_fusion",
    "horizontal_fusion",
    "FusionReport",
]
