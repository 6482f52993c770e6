"""Reduction schemes: numerical equality and cost-model shape."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
    PACK_LIMIT_BYTES,
    rows_per_pack,
)
from repro.errors import CommunicationError
from repro.runtime import HPC1_SUNWAY, HPC2_AMD, SimCluster

ROW_BYTES = 34 * 49 * 8  # shells x lm x float64 — one rho_multipole row


def _serial_sum(buffers):
    """Rank-ascending accumulation — the collectives' exact order."""
    out = buffers[0].copy()
    for b in buffers[1:]:
        out = out + b
    return out


class TestPacking:
    def test_rows_per_pack_respects_limit(self):
        assert rows_per_pack(ROW_BYTES) * ROW_BYTES <= PACK_LIMIT_BYTES
        assert rows_per_pack(PACK_LIMIT_BYTES + 1) == 1  # at least one row

    def test_rows_per_pack_validation(self):
        with pytest.raises(CommunicationError):
            rows_per_pack(0)

    def test_paper_rows_cap(self):
        scheme = PackedAllreduce()
        rep = scheme.estimate(HPC1_SUNWAY, 256, 30002, ROW_BYTES)
        # "packing every 512 MPIAllReduce invocations into one".
        assert rep.n_collectives == -(-30002 // 512)


class TestNumericalEquivalence:
    @pytest.mark.parametrize(
        "scheme_cls", [BaselineRowwiseAllreduce, PackedAllreduce]
    )
    def test_matches_plain_sum_hpc1(self, scheme_cls, rng):
        cl = SimCluster(HPC1_SUNWAY, 12)
        data = [rng.normal(size=(25, 9)) for _ in range(12)]
        scheme = scheme_cls() if scheme_cls is BaselineRowwiseAllreduce else scheme_cls(rows_cap=6)
        out = scheme.reduce(cl, data)
        assert np.array_equal(out, sum(data[1:], data[0].copy()))

    def test_hierarchical_matches_sum(self, rng):
        cl = SimCluster(HPC2_AMD, 64)
        data = [rng.normal(size=(30, 5)) for _ in range(64)]
        out = PackedHierarchicalAllreduce(rows_cap=10).reduce(cl, data)
        assert np.allclose(out, np.sum(data, axis=0), atol=1e-11)

    @given(p=st.integers(2, 16), rows=st.integers(1, 30), cap=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_packed_equals_baseline_bitwise(self, p, rows, cap):
        """Packing must not change reduction results at all."""
        rng = np.random.default_rng(p + rows * 100 + cap * 10000)
        data = [rng.normal(size=(rows, 4)) for _ in range(p)]
        cl = SimCluster(HPC1_SUNWAY, p)
        out_b = BaselineRowwiseAllreduce().reduce(cl, data)
        out_p = PackedAllreduce(rows_cap=cap).reduce(cl, data)
        assert np.array_equal(out_b, out_p)

    def test_hierarchical_requires_shm(self, rng):
        cl = SimCluster(HPC1_SUNWAY, 12)
        data = [rng.normal(size=(4, 4)) for _ in range(12)]
        with pytest.raises(CommunicationError):
            PackedHierarchicalAllreduce().reduce(cl, data)
        with pytest.raises(CommunicationError):
            PackedHierarchicalAllreduce().estimate(HPC1_SUNWAY, 12, 4, 64)

    def test_input_validation(self, rng):
        cl = SimCluster(HPC1_SUNWAY, 4)
        with pytest.raises(CommunicationError):
            BaselineRowwiseAllreduce().reduce(cl, [np.zeros((3, 3))] * 3)
        with pytest.raises(CommunicationError):
            BaselineRowwiseAllreduce().reduce(cl, [np.zeros(3)] * 4)


class TestCollectiveProperties:
    """SimComm's allreduce is bit-exact with a serial numpy sum across
    random rank counts, dtypes and machine shapes."""

    DTYPES = (np.float32, np.float64, np.complex128, np.int64)

    @staticmethod
    def _buffers(rng, p, n, dtype):
        if np.issubdtype(dtype, np.integer):
            return [rng.integers(-1000, 1000, size=n).astype(dtype) for _ in range(p)]
        if np.issubdtype(dtype, np.complexfloating):
            return [
                (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(dtype)
                for _ in range(p)
            ]
        return [rng.normal(size=n).astype(dtype) for _ in range(p)]

    @given(
        p=st.integers(1, 24),
        n=st.integers(1, 60),
        dtype_i=st.integers(0, 3),
        base_i=st.integers(0, 1),
        procs_per_node=st.integers(1, 9),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_allreduce_bitwise_equals_serial(
        self, p, n, dtype_i, base_i, procs_per_node, seed
    ):
        dtype = self.DTYPES[dtype_i]
        machine = replace(
            (HPC1_SUNWAY, HPC2_AMD)[base_i], procs_per_node=procs_per_node
        )
        rng = np.random.default_rng(seed)
        bufs = self._buffers(rng, p, n, dtype)
        out = SimCluster(machine, p).comm().allreduce(bufs)
        ref = _serial_sum(bufs)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)


class TestCostShape:
    """Fig. 10's qualitative claims, asserted on the estimates."""

    def test_packing_reduces_collectives_and_time(self):
        for machine in (HPC1_SUNWAY, HPC2_AMD):
            b = BaselineRowwiseAllreduce().estimate(machine, 1024, 30002, ROW_BYTES)
            p = PackedAllreduce().estimate(machine, 1024, 30002, ROW_BYTES)
            assert p.n_collectives < b.n_collectives / 100
            assert p.total_time < b.total_time / 5

    def test_packed_speedup_grows_with_ranks(self):
        speedups = []
        for ranks in (256, 1024, 4096):
            b = BaselineRowwiseAllreduce().estimate(HPC2_AMD, ranks, 30002, ROW_BYTES)
            p = PackedAllreduce().estimate(HPC2_AMD, ranks, 30002, ROW_BYTES)
            speedups.append(b.total_time / p.total_time)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_paper_speedup_ranges(self):
        """Speedups land in the paper's reported bands (coarsely)."""
        # HPC#1: 8.2x - 34.9x over 256..8192 ranks.
        for ranks in (256, 8192):
            b = BaselineRowwiseAllreduce().estimate(HPC1_SUNWAY, ranks, 30002, ROW_BYTES)
            p = PackedAllreduce().estimate(HPC1_SUNWAY, ranks, 30002, ROW_BYTES)
            assert 5.0 < b.total_time / p.total_time < 60.0
        # HPC#2 packed: 9.2x - 269.6x.
        b = BaselineRowwiseAllreduce().estimate(HPC2_AMD, 256, 30002, ROW_BYTES)
        p = PackedAllreduce().estimate(HPC2_AMD, 256, 30002, ROW_BYTES)
        assert 5.0 < b.total_time / p.total_time < 30.0
        b = BaselineRowwiseAllreduce().estimate(HPC2_AMD, 8192, 30002, ROW_BYTES)
        p = PackedAllreduce().estimate(HPC2_AMD, 8192, 30002, ROW_BYTES)
        assert 60.0 < b.total_time / p.total_time < 400.0

    def test_hierarchical_beats_packed_on_hpc2(self):
        for ranks in (1024, 8192):
            p = PackedAllreduce().estimate(HPC2_AMD, ranks, 30002, ROW_BYTES)
            h = PackedHierarchicalAllreduce().estimate(HPC2_AMD, ranks, 30002, ROW_BYTES)
            assert h.total_time < p.total_time

    def test_pack_memory_heuristic(self):
        rep = PackedAllreduce().estimate(HPC2_AMD, 256, 30002, ROW_BYTES)
        assert rep.peak_pack_bytes <= PACK_LIMIT_BYTES
