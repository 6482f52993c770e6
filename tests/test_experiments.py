"""Shape assertions on the figure generators (small sweeps).

These encode the paper's qualitative claims: who wins, how the gap
moves with scale, where the hard limits (RMA window, SHM availability)
bite.  The full sweeps live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig09a_memory,
    run_fig09b_dense_access,
    run_fig09c_splines,
    run_fig10_allreduce,
    run_fig11_indirect,
    run_fig12a_volumes,
    run_fig12b_horizontal,
    run_fig13_collapse,
    run_fig15_strong,
    run_fig16_weak,
)
from repro.runtime import HPC1_SUNWAY, HPC2_AMD

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestFig09:
    def test_memory_two_regimes(self):
        r = run_fig09a_memory(ranks=(64, 256))
        # Existing: flat replicated CSR; proposed: smaller, decreasing.
        assert r.existing_kb[0] == r.existing_kb[1]
        assert r.proposed_avg_kb[1] < r.proposed_avg_kb[0]
        assert r.proposed_avg_kb[0] < r.existing_kb[0] / 5
        assert "Fig 9(a)" in r.render()

    def test_dense_access_gains_positive(self):
        r = run_fig09b_dense_access()
        imps = r.improvements()
        assert len(imps) == 4
        for (machine, phase), gain in imps.items():
            assert gain > 0.0, f"{machine}/{phase} should gain from dense access"
        # HPC#1 gains exceed HPC#2's (latency-bound CPEs).
        assert imps[("HPC#1", "n(1)")] > imps[("HPC#2", "n(1)")]

    def test_spline_counts_drop(self):
        r = run_fig09c_splines(n_ranks=128)
        assert r.proposed_counts.mean() < r.existing_counts.mean() / 4
        assert r.proposed_counts.sum() < r.existing_counts.sum()


class TestFig10:
    def test_hpc1_has_no_hierarchical(self):
        r = run_fig10_allreduce(HPC1_SUNWAY, sweeps={30002: (256, 1024)})
        schemes = {s for _, _, s, _, _ in r.rows}
        assert schemes == {"baseline", "packed"}

    def test_hpc2_hierarchy_wins(self):
        r = run_fig10_allreduce(HPC2_AMD, sweeps={30002: (1024, 4096)})
        packed = r.speedups("packed")
        hier = r.speedups("packed_hierarchical")
        for key in packed:
            assert hier[key] > packed[key] > 1.0

    def test_speedups_grow_with_ranks(self):
        r = run_fig10_allreduce(HPC2_AMD, sweeps={30002: (256, 4096)})
        sp = r.speedups("packed")
        assert sp[(30002, 4096)] > sp[(30002, 256)]


class TestFig11:
    def test_hpc1_gains_exceed_hpc2(self):
        r = run_fig11_indirect(sweep={30002: (256, 1024)})
        s1 = r.speedups("HPC#1")
        s2 = r.speedups("HPC#2")
        assert min(s1) > max(s2)
        assert all(s > 1.0 for s in s2)

    def test_gains_in_paper_band(self):
        r = run_fig11_indirect(sweep={30002: (256,)})
        assert 3.0 < max(r.speedups("HPC#1")) < 9.0  # paper: up to 6.2x
        assert 1.2 < max(r.speedups("HPC#2")) < 6.0  # paper: up to 3.9x


class TestFig12:
    def test_rma_gate(self):
        r = run_fig12a_volumes()
        assert r.vertical_applied["rho_multipole_spl"]
        assert not r.vertical_applied["delta_v_hart_part_spl"]
        assert r.volumes["delta_v_hart_part_spl"] > r.rma_limit

    def test_volumes_near_paper_values(self):
        r = run_fig12a_volumes()
        # Paper: ~28 KB and ~498 KB.
        assert 15 * 1024 < r.volumes["rho_multipole_spl"] < 60 * 1024
        assert 300 * 1024 < r.volumes["delta_v_hart_part_spl"] < 900 * 1024

    def test_horizontal_speedup_grows_with_ranks(self):
        r = run_fig12b_horizontal(sweep={30002: (256, 4096)})
        sp = r.speedups()
        assert sp[1] > sp[0] > 1.0
        assert sp[1] < 4.0  # paper tops out at 2.4x


class TestFig13:
    def test_collapse_speedup_in_band_and_growing(self):
        r = run_fig13_collapse(sweep={30002: (256, 4096)})
        sp = r.speedups()
        assert 1.0 < sp[0] < sp[1] < 1.6  # paper: 1.01 - 1.34


class TestFig1516:
    def test_strong_scaling_monotone(self):
        r = run_fig15_strong(
            n_atoms=30002, ranks_hpc1=(2048, 4096), ranks_hpc2=(1024, 2048)
        )
        for s in r.series:
            assert s.cycle_seconds[1] < s.cycle_seconds[0]
            eff = s.efficiencies()[-1]
            assert 0.3 < eff <= 1.05

    def test_weak_scaling_efficiency_declines(self):
        r = run_fig16_weak(cases=((30002, 2500, 2048), (60002, 5000, 4096)))
        for s in r.series:
            eff = s.efficiencies()
            assert eff[0] == pytest.approx(1.0)
            assert 0.4 < eff[1] <= 1.05
