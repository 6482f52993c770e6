"""Ablation study: each innovation's individual contribution.

Not a paper figure, but the design-choice breakdown DESIGN.md calls
for: starting from the fully optimized configuration, each flag is
switched off alone and the per-cycle slowdown recorded.
"""

from conftest import emit

from repro.experiments.common import flag_pairs
from repro.runtime import HPC2_AMD
from repro.utils.reports import TableFormatter, format_seconds

FLAGS = (
    "locality_mapping",
    "packed_comm",
    "hierarchical_comm",
    "kernel_fusion",
    "indirect_elimination",
    "loop_collapse",
)


def _cycle_seconds(model):
    return sum(model.breakdown().per_cycle.values())


def run_ablation(n_atoms: int = 30002, ranks: int = 2048):
    rows = []
    for flag in FLAGS:
        [(_, _, _, off, full)] = flag_pairs({n_atoms: (ranks,)}, (HPC2_AMD,), flag, _cycle_seconds)
        rows.append((flag, off, off / full))
    return full, rows


def test_ablation_contributions(benchmark):
    full, rows = benchmark.pedantic(run_ablation, iterations=1, rounds=1)
    table = TableFormatter(
        ["disabled flag", "cycle time", "slowdown vs full"],
        title="Ablation: 30 002 atoms, 2 048 ranks, HPC#2",
    )
    table.add_row(["(none - fully optimized)", format_seconds(full), "1.00x"])
    for flag, seconds, slowdown in rows:
        table.add_row([flag, format_seconds(seconds), f"{slowdown:.2f}x"])
    emit(benchmark, table.render())
    # Every ablation must cost something or be neutral - never help.
    assert all(slowdown >= 0.999 for _, _, slowdown in rows)
    # Locality and packing are the load-bearing optimizations.
    by_flag = {flag: slowdown for flag, _, slowdown in rows}
    assert by_flag["packed_comm"] > 1.5
