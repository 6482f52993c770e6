"""Per-figure experiment generators (evaluation section, Figs. 9-16).

Each module exposes a ``run_*`` function returning structured results
plus a rendered table matching the series the paper plots.  The
benchmark harness under ``benchmarks/`` is a thin wrapper around these;
EXPERIMENTS.md records measured-vs-paper values.
"""

from repro.experiments.common import (
    POLY_ATOM_COUNTS,
    full_scale_enabled,
)
from repro.experiments.fig09_locality import (
    run_fig09a_memory,
    run_fig09b_dense_access,
    run_fig09c_splines,
)
from repro.experiments.fig10_allreduce import run_fig10_allreduce
from repro.experiments.fig11_indirect import run_fig11_indirect
from repro.experiments.fig12_fusion import run_fig12a_volumes, run_fig12b_horizontal
from repro.experiments.fig13_collapse import run_fig13_collapse
from repro.experiments.fig14_overall import run_fig14_overall
from repro.experiments.fig15_strong import run_fig15_strong, run_fig15b_time_per_cycle
from repro.experiments.fig16_weak import run_fig16_weak

__all__ = [
    "POLY_ATOM_COUNTS",
    "full_scale_enabled",
    "run_fig09a_memory",
    "run_fig09b_dense_access",
    "run_fig09c_splines",
    "run_fig10_allreduce",
    "run_fig11_indirect",
    "run_fig12a_volumes",
    "run_fig12b_horizontal",
    "run_fig13_collapse",
    "run_fig14_overall",
    "run_fig15_strong",
    "run_fig15b_time_per_cycle",
    "run_fig16_weak",
]
