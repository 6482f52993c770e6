"""Device backend: the host engine plus a price list.

The paper's portability claim (§4.1) is one kernel source on every
backend.  Here that source is the shared view loops of
:mod:`repro.backends.base`, and :class:`DeviceBackend` *is* the host
engine (:class:`~repro.backends.batched.BatchedBackend`: blocks from
the one LRU block cache), so its results are the ``numpy`` engine's
bit for bit.  What it adds is the bill: after each Sumup / H / DM call
it charges :class:`repro.ocl.device.Device` one priced launch — one
work-group per scheduled batch, work-items sized by the *largest*
batch — and the host<->device bytes the phase moves.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends.base import Factored
from repro.backends.batched import BatchedBackend
from repro.backends.registry import register_backend
from repro.ocl.device import Device
from repro.ocl.kernel import Kernel, NDRange


@register_backend("device")
class DeviceBackend(BatchedBackend):
    """The host engine, each phase charged as a priced launch."""

    def __init__(
        self, device: Optional[Device] = None, machine: str = "hpc2"
    ) -> None:
        super().__init__()
        if device is None:
            from repro.runtime.machines import machine_by_name

            device = Device(machine_by_name(machine).accelerator)
        self.device = device

    # ------------------------------------------------------------------
    def _on_bind(self) -> None:
        super()._on_bind()
        builder = self._require_bound()
        # The density-independent tables staged into __global memory
        # once: the (n_points, n_basis) basis table and the weights.
        self._transfer(8 * builder.grid.n_points * (builder.basis.n_basis + 1))

    def _transfer(self, nbytes: int) -> None:
        """Charge *nbytes* to the device and to this backend's profile.

        The device may be shared across molecules (the fleet driver);
        each molecule's profile attributes only its own traffic.
        """
        self.device.transfer(nbytes)
        self.profile.device_bytes_transferred += nbytes

    def _launch(self, kernel: Kernel, n_groups: int, k: int = 1) -> None:
        """Charge one launch: a work-group per scheduled batch, items
        sized by the largest batch, times the *k* densities or
        potentials it carries.

        Sizing by the *mean* batch starves work-items whenever batches
        are uneven; the max guarantees every point of every batch maps
        to an item (no batches, no items: ``NDRange`` rejects it).
        Sumup/H pass the views' batch count as *n_groups*, so batches
        without work are never scheduled — the model prices only launched
        blocks, and prices a batch, not a fused view, as the work-group.
        """
        builder = self._require_bound()
        items = k * max((b.n_points for b in builder.batches), default=0)
        ndrange = NDRange(n_groups=max(n_groups, 1), items_per_group=items)
        report = self.device.launch(kernel, ndrange)
        self.profile.device_launches += 1
        self.profile.device_modeled_seconds += report.total_time

    def _charge(
        self, kernel: Kernel, n_groups: int, in_bytes: int, out_bytes: int,
        k: int = 1,
    ) -> None:
        """Charge one phase: its input moves to the device, its output
        buffer both ways (zeroed in, result out), then one launch."""
        self._transfer(in_bytes + 2 * out_bytes)
        self._launch(kernel, n_groups, k)

    def _charge_sweep(
        self, name: str, flops_per_pair: float, in_bytes: int, out_bytes: int,
        k: int,
    ) -> None:
        """Charge one Sumup/H sweep of *k* densities or potentials as one
        launch, priced from the view set at ``k x`` its items.

        Per grid point the contraction costs the mean ``cols x cols``
        pair count and reads the mean column count, each batch at its own
        width screened or not, so one pricing rule serves both.  The
        fleet device fuses launches by *name*,
        hence the screened kernels keep their own.
        """
        views = self._require_bound().views
        kernel = Kernel(
            name=f"{name}_screened" if views.screened else name,
            flops_per_item=flops_per_pair * views.avg_cols_sq,
            bytes_read_per_item=8.0 * views.avg_cols,
            bytes_written_per_item=8.0,
        )
        self._charge(kernel, views.n_batches, in_bytes, out_bytes, k)

    # ------------------------------------------------------------------
    # Phase operations: the host loop, then its price
    # ------------------------------------------------------------------
    def _density_impl(self, density) -> np.ndarray:
        n = super()._density_impl(density)
        # The paper's Sumup reads a DM: a factored density is priced and
        # moved as its P (k of them, k-wide), not as its factors.
        nb = self._require_bound().basis.n_basis
        k = n.shape[1] if n.ndim == 2 else 1
        p_bytes = 8 * k * nb * nb if isinstance(density, Factored) else density.nbytes
        self._charge_sweep("sumup_density", 2.0, p_bytes, n.nbytes, k)
        return n

    def _potential_impl(self, v: np.ndarray) -> np.ndarray:
        h = super()._potential_impl(v)
        self._charge_sweep("h_integration", 3.0, v.nbytes, h.nbytes, len(v))
        return h

    def _dm_impl(
        self,
        h1: np.ndarray,
        inv_gaps: np.ndarray,
        c_occ: np.ndarray,
        c_virt: np.ndarray,
        f_occ: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, c1, p1 = super()._dm_impl(h1, inv_gaps, c_occ, c_virt, f_occ)
        builder = self._require_bound()
        # The rotation reads h1 whole: n_basis entries per row.
        kernel = Kernel(
            name="dm_response",
            flops_per_item=2.0 * builder.basis.n_basis,
            bytes_read_per_item=16.0,
            bytes_written_per_item=8.0,
        )
        self._charge(kernel, len(builder.batches), np.asarray(h1).nbytes, p1.nbytes)
        return u, c1, p1
