"""Device backend: the phase operations as priced OpenCL-model launches.

Routes the same view-ordered math through :class:`repro.ocl.device.Device`
— one work-group per scheduled batch, work-items sized by the *largest* batch —
so the priced kernel layer finally sits under the real SCF/CPSCF loops
instead of beside them.  The kernel bodies run the exact shared view
loops of :mod:`repro.backends.base`, so results are bit-identical to
the ``numpy`` host engine while every launch and host<->device transfer
is charged to the profile.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.backends.base import ExecutionBackend, Factored, first_order_dm_dense
from repro.backends.registry import register_backend
from repro.errors import BackendError
from repro.grids.sparsity import BatchView, build_batch_views
from repro.ocl.buffers import DeviceBuffer
from repro.ocl.device import Device
from repro.ocl.kernel import Kernel, NDRange


@register_backend("device")
class DeviceBackend(ExecutionBackend):
    """Accelerator-model backend (bit-exact, launch-priced)."""

    def __init__(
        self, device: Optional[Device] = None, machine: str = "hpc2"
    ) -> None:
        super().__init__()
        if device is None:
            from repro.runtime.machines import machine_by_name

            device = Device(machine_by_name(machine).accelerator)
        self.device = device
        self._phi: Optional[DeviceBuffer] = None
        self._weights: Optional[DeviceBuffer] = None

    # ------------------------------------------------------------------
    def _on_bind(self) -> None:
        builder = self._require_bound()
        # Stage the density-independent tables into __global memory once.
        # The table is assembled from unscreened views with the shared
        # (profiled) evaluation, so its rows are bitwise the other
        # backends' blocks.
        table = np.zeros((builder.grid.n_points, builder.basis.n_basis))
        for view in build_batch_views(builder.batches, builder.basis):
            table[view.point_indices[:, None], view.cols] = self._evaluate_block(view)
        self._phi = DeviceBuffer("basis_values", table)
        self._weights = DeviceBuffer("weights", builder.grid.weights)
        self._to_device(self._phi)
        self._to_device(self._weights)

    def _launch(
        self, kernel: Kernel, buffers: Dict[str, DeviceBuffer], n_groups: int,
        k: int = 1,
    ) -> None:
        """Launch one work-group per scheduled batch, items sized by the
        largest batch, times the *k* densities or potentials it carries.

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
        report = self.device.launch(kernel, ndrange, buffers)
        self.profile.device_launches += 1
        self.profile.device_modeled_seconds += report.total_time

    def _launch_phase(
        self, name: str, flops_per_pair: float, shared,
        arg: DeviceBuffer, out: DeviceBuffer, k: int, **resident: DeviceBuffer,
    ) -> np.ndarray:
        """Run one Sumup/H sweep of *k* densities or potentials as one
        kernel, priced from the view set at ``k x`` its items.

        The kernel body *is* the base class's view loop (*shared*),
        reading the staged table through :meth:`basis_block`; the device
        only adds buffer traffic and a priced launch around it.  Per
        grid point the contraction costs the mean ``cols x cols`` pair
        count and reads the mean column count — exactly ``n_basis**2``
        and ``n_basis`` on the dense views, so one pricing rule serves
        both.  The fleet device fuses launches by *name*, hence the
        screened kernels keep their own.
        """
        views = self._require_bound().views
        self._to_device(arg)
        self._to_device(out)

        def body(bufs: Dict[str, DeviceBuffer]) -> None:
            bufs[out.name].data[...] = shared(bufs[arg.name].data)

        kernel = Kernel(
            name=f"{name}_screened" if views.screened else name,
            func=body,
            flops_per_item=flops_per_pair * views.avg_cols_sq,
            bytes_read_per_item=8.0 * views.avg_cols,
            bytes_written_per_item=8.0,
        )
        self._launch(
            kernel, {**resident, arg.name: arg, out.name: out},
            n_groups=views.n_batches, k=k,
        )
        self._from_device(out)
        return out.data

    # Transfers are charged by delta, not by copying the device's
    # absolute counter: the device may be shared across molecules (the
    # fleet driver), and each molecule's profile must attribute only
    # its own traffic.
    def _to_device(self, buffer: DeviceBuffer) -> None:
        before = self.device.bytes_transferred
        self.device.to_device(buffer)
        self.profile.device_bytes_transferred += (
            self.device.bytes_transferred - before
        )

    def _from_device(self, buffer: DeviceBuffer) -> None:
        before = self.device.bytes_transferred
        self.device.from_device(buffer)
        self.profile.device_bytes_transferred += (
            self.device.bytes_transferred - before
        )

    def basis_block(self, view: BatchView) -> np.ndarray:
        if self._phi is None:
            raise BackendError("device backend used before bind()")
        # The staged table's rows, gathered to the view's columns.
        return self._phi.data[view.point_indices[:, None], view.cols]

    # ------------------------------------------------------------------
    # Phase operations as kernel launches
    # ------------------------------------------------------------------
    def _density_impl(self, density) -> np.ndarray:
        # The paper's Sumup reads a DM: a factored density is priced and
        # moved as its P (k of them, k-wide), while the body runs the
        # shared loop on the factors.
        n_points = self._require_bound().grid.n_points
        loop = super()._density_impl
        p = density.matrix() if isinstance(density, Factored) else density
        wide = p.ndim == 3
        k = len(p) if wide else 1
        return self._launch_phase(
            "sumup_density", 2.0, lambda _: loop(density),
            DeviceBuffer("p", p), DeviceBuffer("n", np.zeros((n_points, k) if wide else n_points)),
            k, basis_values=self._phi,
        )

    def _potential_impl(self, v: np.ndarray) -> np.ndarray:
        nb = self._require_bound().basis.n_basis
        return self._launch_phase(
            "h_integration", 3.0, super()._potential_impl,
            DeviceBuffer("v", v), DeviceBuffer("h", np.zeros((len(v), nb, nb))),
            len(v), basis_values=self._phi, weights=self._weights,
        )

    def _dm_impl(
        self,
        h1: np.ndarray,
        inv_gaps: np.ndarray,
        c_occ: np.ndarray,
        c_virt: np.ndarray,
        f_occ: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        builder = self._require_bound()
        nb = builder.basis.n_basis
        h1_buf = DeviceBuffer("h1", np.asarray(h1))
        p1_buf = DeviceBuffer("p1", np.zeros((nb, nb)))
        self._to_device(h1_buf)
        self._to_device(p1_buf)
        result: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

        def body(bufs: Dict[str, DeviceBuffer]) -> None:
            out = first_order_dm_dense(
                bufs["h1"].data, inv_gaps, c_occ, c_virt, f_occ
            )
            result["dm"] = out
            bufs["p1"].data[...] = out[2]

        # Under screening h1 only carries the pattern's atom-pair
        # blocks, so the read side of the rotation is priced by the
        # average nonzeros per row (``n_basis`` on the dense views).
        nnz_per_row = builder.views.matrix_nnz / max(nb, 1)
        kernel = Kernel(
            name="dm_response",
            func=body,
            flops_per_item=2.0 * nnz_per_row,
            bytes_read_per_item=16.0,
            bytes_written_per_item=8.0,
        )
        self._launch(
            kernel, {"h1": h1_buf, "p1": p1_buf}, n_groups=len(builder.batches)
        )
        self._from_device(p1_buf)
        u, c1, _ = result["dm"]
        return u, c1, p1_buf.data
