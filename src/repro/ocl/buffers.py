"""Device buffers with explicit address spaces and transfer accounting.

A :class:`DeviceBuffer` wraps a real numpy array; ``__global`` buffers
live in off-chip device memory, ``__local`` in per-CU scratch.  The
owning :class:`~repro.ocl.device.Device` charges host<->device transfer
time and enforces on-chip capacity.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np


class AddressSpace(enum.Enum):
    """OpenCL address spaces the model distinguishes."""

    GLOBAL = "__global"
    LOCAL = "__local"
    HOST = "host"


class DeviceBuffer:
    """A named array in a specific address space.

    Attributes
    ----------
    name:
        Identifier used in kernel signatures and reports.
    data:
        The actual numpy array (numerics are real).
    space:
        Where the buffer lives; transfers between spaces go through
        :meth:`repro.ocl.device.Device.to_device` / ``from_device``.
    persistent:
        Whether the buffer stays resident on the device across kernel
        launches (possible only if the device supports it) — the
        mechanism horizontal fusion exploits (Section 4.2.2).
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        space: AddressSpace = AddressSpace.HOST,
        persistent: bool = False,
    ) -> None:
        self.name = name
        self.data = np.asarray(data)
        self.space = space
        self.persistent = persistent

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return (
            f"DeviceBuffer({self.name!r}, shape={self.data.shape}, "
            f"space={self.space.value}, {self.nbytes} B)"
        )
