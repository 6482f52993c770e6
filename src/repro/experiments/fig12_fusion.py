"""Figure 12 — fusing the widely-dependent response-potential kernels.

(a) the inter-kernel shared data volumes (``rho_multipole_spl`` ~28 KB,
    ``delta_v_hart_part_spl`` ~498 KB per atom batch) against the 64 KB
    RMA limit of HPC #1 — vertical fusion only helps the former;
(b) horizontal-fusion speedups of the v^(1) phase on HPC #2, growing
    with rank count (less consumer work per rank -> producer redundancy
    dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.basis.spline import spline_coefficient_nbytes
from repro.basis.ylm import n_lm
from repro.config import get_settings
from repro.core.phasemodel import PhaseModel
from repro.experiments.common import flag_pairs
from repro.grids.shells import radial_shells_for_species
from repro.ocl.device import Device
from repro.ocl.fusion import vertical_fusion
from repro.ocl.kernel import Kernel, NDRange
from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD
from repro.utils.reports import TableFormatter, format_bytes

#: Paper sweep for Fig. 12(b).
PAPER_SWEEP_12B: Dict[int, Tuple[int, ...]] = {
    30002: (256, 512, 1024, 2048, 4096),
    60002: (1024, 2048, 4096, 8192),
    117602: (4096, 8192, 16384),
}


@dataclass
class Fig12aResult:
    rma_limit: int
    volumes: Dict[str, int]
    vertical_applied: Dict[str, bool]

    def render(self) -> str:
        t = TableFormatter(
            ["array", "volume", "fits 64 KB RMA?", "vertical fusion"],
            title="Fig 12(a): inter-kernel shared data vs HPC#1 RMA limit",
        )
        for name, nbytes in self.volumes.items():
            t.add_row(
                [
                    name,
                    format_bytes(nbytes),
                    "yes" if nbytes <= self.rma_limit else "NO",
                    "applied" if self.vertical_applied[name] else "refused",
                ]
            )
        return t.render()


def spline_buffer_volumes(level: str = "light") -> Dict[str, int]:
    """Coefficient-table sizes of the two shared spline arrays.

    Derived from the real radial meshes: ``rho_multipole_spl`` holds one
    atom's multipole density spline; ``delta_v_hart_part_spl`` holds the
    partial-potential splines of every lm channel of the atoms a batch
    touches (~18 atoms' worth), matching the paper's 28 KB / 498 KB.
    """
    settings = get_settings(level)
    shells = radial_shells_for_species(6, settings.grids.n_radial_base)
    lm = n_lm(settings.l_max_hartree)
    rho_spl = spline_coefficient_nbytes(shells.n, lm)
    v_spl = 18 * spline_coefficient_nbytes(shells.n, lm)
    return {
        "rho_multipole_spl": rho_spl,
        "delta_v_hart_part_spl": v_spl,
    }


def run_fig12a_volumes() -> Fig12aResult:
    """Check both arrays against HPC #1's RMA window via vertical fusion."""
    volumes = spline_buffer_volumes()
    device = Device(HPC1_SUNWAY.accelerator)
    producer = Kernel("producer", flops_per_item=1e5)
    consumer = Kernel("consumer", flops_per_item=1e4)
    applied = {}
    for name, nbytes in volumes.items():
        rep = vertical_fusion(
            device,
            producer,
            NDRange(8, 49),
            consumer,
            NDRange(64, 200),
            intermediate_bytes=nbytes,
        )
        applied[name] = rep.applied
    return Fig12aResult(
        rma_limit=HPC1_SUNWAY.accelerator.rma_max_bytes,
        volumes=volumes,
        vertical_applied=applied,
    )


@dataclass
class Fig12bResult:
    rows: List[Tuple[int, int, float, float, float]]
    # (atoms, ranks, t_unfused, t_fused, speedup)

    def render(self) -> str:
        t = TableFormatter(
            ["atoms", "ranks", "v(1) unfused", "v(1) fused", "speedup"],
            title="Fig 12(b): horizontal fusion of the v(1) phase, HPC#2",
        )
        for atoms, p, t0, t1, s in self.rows:
            t.add_row([atoms, p, f"{t0:.3f} s", f"{t1:.3f} s", f"{s:.2f}x"])
        return t.render()

    def speedups(self) -> List[float]:
        return [s for _, _, _, _, s in self.rows]


def run_fig12b_horizontal(
    sweep: Dict[int, Sequence[int]] = None
) -> Fig12bResult:
    """Rho-phase time with and without horizontal fusion across the sweep."""
    pairs = flag_pairs(
        sweep or PAPER_SWEEP_12B, (HPC2_AMD,), "kernel_fusion", PhaseModel.rho_time
    )
    return Fig12bResult(
        rows=[(atoms, p, t0, t1, t0 / t1) for _, atoms, p, t0, t1 in pairs]
    )
