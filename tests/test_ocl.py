"""OpenCL device model: launch prices, transfers, transforms, fusion."""

import pytest

from repro.atoms import hydrogen_molecule, polyethylene
from repro.backends import device_bill
from repro.basis import build_basis
from repro.config import get_settings
from repro.core import OptimizationFlags, PerturbationSimulator
from repro.dft.hamiltonian import MatrixBuilder
from repro.grids import build_grid
from repro.errors import DeviceError, KernelFusionError
from repro.ocl import (
    Device,
    Kernel,
    NDRange,
    eliminate_indirect_accesses,
    horizontal_fusion,
    vertical_fusion,
)
from repro.runtime import HPC1_SUNWAY, HPC2_AMD


@pytest.fixture
def sunway():
    return Device(HPC1_SUNWAY.accelerator)


@pytest.fixture
def mi50():
    return Device(HPC2_AMD.accelerator)


class TestNDRangeAndKernel:
    def test_ndrange_items(self):
        nd = NDRange(10, 64)
        assert nd.n_items == 640

    def test_ndrange_validation(self):
        with pytest.raises(DeviceError):
            NDRange(0, 1)

    def test_kernel_with_updates(self):
        k = Kernel("a", flops_per_item=10)
        k2 = k.with_updates(flops_per_item=20)
        assert k.flops_per_item == 10 and k2.flops_per_item == 20


class TestDevice:
    def test_launch_prices_and_counts(self, mi50):
        k = Kernel("k", flops_per_item=1000, bytes_read_per_item=64)
        nd = NDRange(4, 64)
        first, second = mi50.estimate(k, nd), mi50.estimate(k, nd)
        # The price does not depend on what the device priced before,
        # and counts every item of the launch.
        assert first == second and first.n_items == 256
        assert first.total_time == (
            first.launch_overhead + first.compute_time + first.stream_time
            + first.indirect_time
        )

    def test_transfer_accounting(self):
        """Moving bytes is the bill's account, not the device's: a run
        that staged its tables and launched nothing bills the bytes, no
        launch and no modeled time."""
        h2 = hydrogen_molecule()
        settings = get_settings("minimal")
        builder = MatrixBuilder(
            build_basis(h2), build_grid(h2, settings.grids, with_partition=True)
        )
        bill = device_bill(builder.backend.profile)
        nb, n_points = builder.basis.n_basis, builder.grid.n_points
        assert bill.bytes_transferred == 8 * n_points * (nb + 1)
        assert (bill.launches, bill.modeled_seconds) == (0, 0.0)

    def test_cost_scales_with_items(self, mi50):
        k = Kernel("k", flops_per_item=1000, bytes_read_per_item=64)
        t1 = mi50.estimate(k, NDRange(10, 64)).total_time
        t2 = mi50.estimate(k, NDRange(100, 64)).total_time
        assert t2 > t1

    def test_limited_width_slower(self, mi50):
        """The un-collapsed (p, m) nest keeps p_max + 1 of a wavefront's 64
        lanes busy; its one price is the Rho producer's Adams-Moulton
        penalty (Section 4.4)."""
        sim = PerturbationSimulator(polyethylene(10))
        nested, collapsed = (
            sim.phase_model(
                HPC2_AMD, 4, OptimizationFlags.all().but(loop_collapse=collapse)
            )._rho_producer_kernel()
            for collapse in (False, True)
        )
        nd = NDRange(64, 49)
        assert mi50.estimate(nested, nd).compute_time > mi50.estimate(collapsed, nd).compute_time

    def test_rma_window(self, sunway, mi50):
        assert sunway.rma_supported(28 * 1024)
        assert not sunway.rma_supported(498 * 1024)
        assert not mi50.rma_supported(1024)  # GPUs have no RMA mechanism


class TestGatherMap:
    """Section 4.3's transform, as the model prices it."""

    def test_eliminate_updates_kernel_model(self):
        k = Kernel("init", indirect_accesses_per_item=4, bytes_read_per_item=48)
        kd = eliminate_indirect_accesses(k)
        assert kd.indirect_accesses_per_item == 0
        assert kd.bytes_read_per_item > k.bytes_read_per_item

    def test_eliminate_requires_indirect(self):
        with pytest.raises(DeviceError):
            eliminate_indirect_accesses(Kernel("k"))


class TestFusion:
    def _kernels(self):
        prod = Kernel("prod", flops_per_item=1e5, bytes_written_per_item=32)
        cons = Kernel("cons", flops_per_item=1e4, bytes_read_per_item=64)
        return prod, cons

    def test_vertical_applies_within_rma(self, sunway):
        prod, cons = self._kernels()
        rep = vertical_fusion(sunway, prod, NDRange(8, 49), cons, NDRange(32, 200), 28 * 1024)
        assert rep.applied and rep.speedup > 1.0

    def test_vertical_refused_beyond_rma(self, sunway):
        prod, cons = self._kernels()
        rep = vertical_fusion(sunway, prod, NDRange(8, 49), cons, NDRange(32, 200), 498 * 1024)
        assert not rep.applied
        assert rep.speedup == pytest.approx(1.0)
        assert "RMA" in rep.reason

    def test_vertical_refused_without_rma(self, mi50):
        prod, cons = self._kernels()
        rep = vertical_fusion(mi50, prod, NDRange(8, 49), cons, NDRange(32, 200), 1024)
        assert not rep.applied

    def test_horizontal_applies_on_gpu(self, mi50):
        prod, cons = self._kernels()
        rep = horizontal_fusion(
            mi50, prod, NDRange(8, 49), cons, NDRange(32, 200), 498 * 1024, group_size=8
        )
        assert rep.applied and rep.speedup > 1.0

    def test_horizontal_refused_without_persistence(self, sunway):
        prod, cons = self._kernels()
        rep = horizontal_fusion(
            sunway, prod, NDRange(8, 49), cons, NDRange(32, 200), 1024, group_size=8
        )
        assert not rep.applied

    def test_horizontal_gain_grows_when_producer_dominates(self, mi50):
        prod = Kernel("prod", flops_per_item=1e6)
        cons = Kernel("cons", flops_per_item=1e3)
        small_cons = horizontal_fusion(
            mi50, prod, NDRange(64, 49), cons, NDRange(4, 64), 1024, group_size=8
        )
        big_cons = horizontal_fusion(
            mi50, prod, NDRange(64, 49), cons, NDRange(4096, 64), 1024, group_size=8
        )
        assert small_cons.speedup > big_cons.speedup

    def test_validation(self, mi50):
        prod, cons = self._kernels()
        with pytest.raises(KernelFusionError):
            vertical_fusion(mi50, prod, NDRange(1, 1), cons, NDRange(1, 1), 0)
        with pytest.raises(KernelFusionError):
            horizontal_fusion(mi50, prod, NDRange(1, 1), cons, NDRange(1, 1), 8, group_size=0)
