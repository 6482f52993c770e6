"""Simulated OpenCL device layer (Section 4).

A kernel here is its declared work; the numerics it stands for run on
the host, in the shared view loops of :mod:`repro.backends.base`, and
are exact.  A per-launch performance model (launch overhead, compute,
off-chip traffic, indirect-access latency) prices each launch on a
device preset, and the device counts launches and transferred bytes.
Three of the paper's kernel optimizations are transforms over these
kernel objects:

* vertical fusion via on-chip RMA (4.2.1, Sunway),
* horizontal fusion across ranks sharing a GPU (4.2.2, AMD),
* indirect-access elimination (4.3).

The fourth, the (p, m) loop collapse (4.4), is priced once, inside the
phase model's Rho producer (:mod:`repro.core.phasemodel`).
"""

from repro.ocl.kernel import Kernel, NDRange, LaunchReport
from repro.ocl.device import Device
from repro.ocl.transforms import eliminate_indirect_accesses
from repro.ocl.fusion import (
    vertical_fusion,
    horizontal_fusion,
    FusionReport,
)

__all__ = [
    "Kernel",
    "NDRange",
    "LaunchReport",
    "Device",
    "eliminate_indirect_accesses",
    "vertical_fusion",
    "horizontal_fusion",
    "FusionReport",
]
