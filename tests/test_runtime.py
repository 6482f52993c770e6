"""Simulated cluster, collectives, SHM windows and the cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommunicationError
from repro.runtime import (
    CommCostModel,
    HPC1_SUNWAY,
    HPC2_AMD,
    SharedWindow,
    SimCluster,
    allreduce_time,
    barrier_time,
    machine_by_name,
)


class TestMachines:
    def test_lookup(self):
        assert machine_by_name("hpc1") is HPC1_SUNWAY
        assert machine_by_name("HPC2") is HPC2_AMD
        with pytest.raises(CommunicationError):
            machine_by_name("hpc9")

    def test_paper_facts(self):
        # Node shapes from the paper's evaluation setup.
        assert HPC1_SUNWAY.procs_per_node == 6  # SW39010 core groups
        assert HPC2_AMD.procs_per_node == 32  # 32-core CPU
        assert HPC2_AMD.ranks_per_accelerator == 8  # 4 GPUs per node
        assert HPC1_SUNWAY.accelerator.rma_max_bytes == 64 * 1024
        assert not HPC1_SUNWAY.shm_windows  # disjoint core-group memories
        assert HPC2_AMD.shm_windows
        assert HPC2_AMD.accelerator.compute_units == 64  # MI50 CUs

    def test_nodes_for(self):
        assert HPC2_AMD.nodes_for(32) == 1
        assert HPC2_AMD.nodes_for(33) == 2
        with pytest.raises(CommunicationError):
            HPC2_AMD.nodes_for(0)


class TestCostPrimitives:
    def test_barrier_scaling(self):
        assert barrier_time(1, 1e-6) == 0.0
        assert barrier_time(8, 1e-6) == pytest.approx(3e-6)
        assert barrier_time(9, 1e-6) == pytest.approx(4e-6)

    def test_allreduce_monotone_in_size_and_ranks(self):
        t_small = allreduce_time(64, 1024, 1e-6, 1e-10)
        t_big = allreduce_time(64, 1024**2, 1e-6, 1e-10)
        assert t_big > t_small
        assert allreduce_time(128, 1024, 1e-6, 1e-10) > allreduce_time(
            4, 1024, 1e-6, 1e-10
        )

    def test_single_rank_free(self):
        assert allreduce_time(1, 10**6, 1e-6, 1e-10) == 0.0

    def test_hierarchical_beats_flat_at_scale(self):
        cost = CommCostModel(HPC2_AMD)
        nbytes = 512 * 13 * 1024
        flat = cost.allreduce(4096, nbytes)
        local, inter = cost.hierarchical_allreduce(4096, nbytes, 32)
        assert local + inter < flat

    def test_hierarchical_requires_shm(self):
        cost = CommCostModel(HPC1_SUNWAY)
        with pytest.raises(CommunicationError):
            cost.intra_node_reduce(6, 1024)

    def test_hierarchical_divisibility(self):
        cost = CommCostModel(HPC2_AMD)
        with pytest.raises(CommunicationError):
            cost.hierarchical_allreduce(100, 1024, 32)


class TestSimCluster:
    def test_layout(self, make_cluster):
        cl = make_cluster(100)
        assert cl.n_nodes == 4
        assert cl.node_of(0) == 0 and cl.node_of(99) == 3
        assert list(cl.ranks_of_node(3)) == list(range(96, 100))

    def test_rank_bounds(self, make_cluster):
        cl = make_cluster(8)
        with pytest.raises(CommunicationError):
            cl.node_of(8)
        with pytest.raises(CommunicationError):
            SimCluster(HPC2_AMD, 0)

    def test_ranks_of_node_partial_last_node(self, make_cluster):
        # 100 ranks at 32/node: node 3 hosts only ranks 96..99.
        cl = make_cluster(100)
        partial = cl.ranks_of_node(3)
        assert list(partial) == [96, 97, 98, 99]
        assert len(partial) < cl.machine.procs_per_node

    def test_ranks_of_node_bounds_raise_clearly(self, make_cluster):
        cl = make_cluster(100)  # 4 nodes
        with pytest.raises(CommunicationError, match="out of range"):
            cl.ranks_of_node(4)  # first node past the end
        with pytest.raises(CommunicationError, match="out of range"):
            cl.ranks_of_node(-1)  # used to return a bogus negative range
        # Exactly full cluster: last valid node is n_nodes - 1.
        full = make_cluster(64)
        assert list(full.ranks_of_node(1)) == list(range(32, 64))
        with pytest.raises(CommunicationError, match="out of range"):
            full.ranks_of_node(2)


class TestSimComm:
    def test_allreduce_is_exact_sum(self, rng, make_cluster):
        cl = make_cluster(16)
        comm = cl.comm()
        bufs = [rng.normal(size=(7, 3)) for _ in range(16)]
        out = comm.allreduce(bufs)
        assert np.array_equal(out, sum(bufs[1:], bufs[0].copy()))

    @given(p=st.integers(2, 24), n=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_matches_numpy_sum(self, p, n):
        rng = np.random.default_rng(p * 100 + n)
        cl = SimCluster(HPC2_AMD, p)
        bufs = [rng.normal(size=n) for _ in range(p)]
        out = cl.comm().allreduce(bufs)
        ref = np.sum(bufs, axis=0)
        assert np.allclose(out, ref, rtol=1e-12)

    def test_shape_validation(self, make_cluster):
        cl = make_cluster(4)
        with pytest.raises(CommunicationError):
            cl.comm().allreduce([np.zeros(3)] * 3)
        with pytest.raises(CommunicationError):
            cl.comm().allreduce([np.zeros(3)] * 3 + [np.zeros(4)])

    def test_subcomms(self, make_cluster):
        cl = make_cluster(64)
        leaders = cl.comm().leader_subcomm()
        assert leaders.size == 2 and leaders.ranks == [0, 32]


class TestSharedWindow:
    def test_requires_shm(self):
        with pytest.raises(CommunicationError):
            SharedWindow(SimCluster(HPC1_SUNWAY, 6), (4,))

    def test_chunked_accumulate_equals_sum(self, rng):
        cl = SimCluster(HPC2_AMD, 32)
        win = SharedWindow(cl, (10, 8))
        contribs = [rng.normal(size=(10, 8)) for _ in range(32)]
        out = win.accumulate_chunked(0, contribs)
        assert np.allclose(out, np.sum(contribs, axis=0), atol=1e-12)

    def test_shape_mismatch(self):
        cl = SimCluster(HPC2_AMD, 4)
        win = SharedWindow(cl, (5,))
        with pytest.raises(CommunicationError):
            win.accumulate_chunked(0, [np.ones(6)])
        with pytest.raises(CommunicationError):
            win.accumulate_chunked(0, [])
