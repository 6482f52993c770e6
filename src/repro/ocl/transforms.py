"""Indirect-access elimination (Section 4.3), a kernel-level transform.

Section 4.3 replaces ``A[B[i]]`` by a once-built ``C = A[B]``; the effect
on the model is that every indirect gather becomes a streamed read.  The
(p, m) loop collapse of Section 4.4 has one price, the Adams-Moulton
penalty of :meth:`repro.core.phasemodel.PhaseModel._rho_producer_kernel`.
"""

from __future__ import annotations

from repro.errors import DeviceError
from repro.ocl.kernel import Kernel


def eliminate_indirect_accesses(kernel: Kernel) -> Kernel:
    """Update a kernel's model: indirect gathers become streamed reads."""
    if kernel.indirect_accesses_per_item == 0:
        raise DeviceError(
            f"kernel {kernel.name!r} declares no indirect accesses"
        )
    extra_stream = 8.0 * kernel.indirect_accesses_per_item  # now contiguous
    return kernel.with_updates(
        name=f"{kernel.name}_direct",
        indirect_accesses_per_item=0.0,
        bytes_read_per_item=kernel.bytes_read_per_item + extra_stream,
    )
