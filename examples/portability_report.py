#!/usr/bin/env python
"""Portability report: the Section 4 kernel optimizations on both devices.

Prices each optimization on the OpenCL device model: vertical/horizontal
fusion (with the 64 KB RMA gate), indirect-access elimination (the init
kernel before and after) and the (p, m) loop collapse (Fig. 13's rows).

    python examples/portability_report.py
"""

from repro.experiments import run_fig13_collapse
from repro.ocl import (
    Device,
    Kernel,
    NDRange,
    eliminate_indirect_accesses,
    horizontal_fusion,
    vertical_fusion,
)
from repro.runtime import HPC1_SUNWAY, HPC2_AMD
from repro.utils.reports import TableFormatter


def main() -> None:
    devices = {
        "HPC#1 core group": Device(HPC1_SUNWAY.accelerator),
        "HPC#2 MI50 GPU": Device(HPC2_AMD.accelerator),
    }

    # --- Kernel fusion with wide dependence (Section 4.2) -------------
    producer = Kernel("spline_producer", flops_per_item=5e5,
                      bytes_written_per_item=48)
    consumer = Kernel("interp_consumer", flops_per_item=4e4,
                      bytes_read_per_item=96)
    p_range, c_range = NDRange(64, 49), NDRange(256, 200)

    table = TableFormatter(
        ["device", "mode", "intermediate", "applied", "speedup", "why"],
        title="Fusing kernels with wide dependence",
    )
    for name, dev in devices.items():
        for nbytes, label in ((28 * 1024, "28 KB"), (498 * 1024, "498 KB")):
            v = vertical_fusion(dev, producer, p_range, consumer, c_range, nbytes)
            table.add_row([name, "vertical", label, v.applied,
                           f"{v.speedup:.2f}x", v.reason[:46]])
        h = horizontal_fusion(dev, producer, p_range, consumer, c_range,
                              498 * 1024, group_size=8)
        table.add_row([name, "horizontal", "498 KB", h.applied,
                       f"{h.speedup:.2f}x", h.reason[:46]])
    print(table.render())

    # --- Indirect-access elimination (Section 4.3) --------------------
    print("\nIndirect-access elimination "
          "(coord_center[atom_list[i]] -> permuted[i]):")
    init = Kernel("grid_partition_init", flops_per_item=8000,
                  bytes_read_per_item=48, indirect_accesses_per_item=4)
    direct = eliminate_indirect_accesses(init)
    nd = NDRange(1024, 200)
    for name, dev in devices.items():
        t0 = dev.estimate(init, nd).total_time
        t1 = dev.estimate(direct, nd).total_time
        print(f"  {name}: init phase {t0 * 1e3:.2f} ms -> {t1 * 1e3:.2f} ms "
              f"({t0 / t1:.1f}x)")

    # --- Fine-grained parallelization (Section 4.4) -------------------
    print()
    print(run_fig13_collapse({30002: (256, 1024, 4096)}).render())


if __name__ == "__main__":
    main()
