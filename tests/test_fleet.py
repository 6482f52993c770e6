"""Fleet bit-exactness harness: fleet-of-N vs N sequential runs.

The contract of :func:`~repro.fleet.driver.run_fleet`: executing many
requests as one wave — shared geometry substrates, deduplicated physics
groups run one after another — changes **no result bytes** relative to
running each request through an isolated
:meth:`~repro.core.simulator.PerturbationSimulator.run_physics`.

Pinned here:

* per-request payloads (via :func:`stable_result_bytes`) byte-identical
  to sequential references, with screening on and off, under shuffled
  submission order, and each group's device bill its sequential run's;
* a fleet-of-16 mixed-molecule acceptance run whose per-group profiles
  are the sequential runs' profiles;
* one group live at a time: an earlier group's builder is dead when the
  next group's is constructed, by reference counting alone;
* hypothesis properties: plan permutation-invariance, seed-blind groups;
* one group per physics as the service keys it: a renamed request or
  one written with signed zeros joins its group and keeps its own name;
* service integration: a fleet-mode worker pool drains a statestore to
  the same bytes as a sequential pool (the cache-key path included).
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import hydrogen_molecule, methane, water
from repro.backends import device_bill
from repro.config import RunSettings, get_settings
from repro.core import PerturbationSimulator
from repro.dft.hamiltonian import MatrixBuilder
from repro.fleet import (
    FleetTask,
    fleet_tasks_from_requests,
    physics_fingerprint,
    plan_fleet,
    run_fleet,
)
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.service.jobs import JobRequest, structure_from_dict
from repro.service.worker import result_payload, stable_result_bytes


def h2_requests(n, n_distinct, threshold=0.0, level="minimal"):
    """n requests over n_distinct H2 bond-length variants."""
    settings = get_settings(level, screening_threshold=threshold)
    return [
        JobRequest(
            hydrogen_molecule(bond_length=1.40 + 0.02 * (i % n_distinct)),
            settings,
            seed=i,
        )
        for i in range(n)
    ]


def sequential_runs(tasks, dedup=False):
    """Per-key ``(stable bytes, backend profile)`` of isolated sequential runs.

    With ``dedup=False`` every task gets its own full ``run_physics``
    (the literal N-sequential-runs reference); ``dedup=True`` computes
    once per distinct physics payload — legitimate because isolated
    reruns of identical payloads are bitwise identical (pinned by the
    non-dedup configurations of the parity matrix).
    """
    out = {}
    cache = {}
    for task in tasks:
        fp = physics_fingerprint(task.payload)
        if not dedup or fp not in cache:
            structure = structure_from_dict(task.payload["structure"])
            settings = RunSettings.from_canonical_dict(task.payload["settings"])
            sim = PerturbationSimulator(
                structure, settings, charge=int(task.payload.get("charge", 0))
            )
            cache[fp] = (structure, settings, sim.run_physics())
        structure, settings, result = cache[fp]
        out[task.key] = (
            stable_result_bytes(result_payload(task, structure, settings, result)),
            result.backend_profile.as_dict(),
        )
    return out


def sequential_reference(tasks, dedup=False):
    """Per-key stable bytes from isolated sequential runs."""
    return {key: ref for key, (ref, _) in sequential_runs(tasks, dedup).items()}


def fleet_bytes(outcome):
    return {k: stable_result_bytes(v) for k, v in outcome.results.items()}


class TestFleetParityMatrix:
    """Fleet-of-4 (2 distinct H2 variants) vs 4 isolated sequential runs:
    the payloads (``numpy``), and each group's device bill too
    (``device``, the same runs priced on HPC#2)."""

    @pytest.mark.parametrize("backend", ["numpy", "device"])
    @pytest.mark.parametrize(
        "threshold", [0.0, DEFAULT_SCREENING_THRESHOLD],
        ids=["dense", "screened"],
    )
    def test_fleet_matches_sequential(self, backend, threshold):
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, threshold), commit="parity"
        )
        sequential = sequential_runs(tasks)
        # Shuffled submission: the plan (and therefore the results) must
        # not depend on request order.
        shuffled = list(tasks)
        random.Random(f"{backend}-{threshold}").shuffle(shuffled)
        outcome = run_fleet(shuffled)
        assert not outcome.errors
        assert fleet_bytes(outcome) == {k: ref for k, (ref, _) in sequential.items()}
        if backend == "device":
            for group in plan_fleet(tasks).groups:
                bill = device_bill(outcome.report.profiles[group.fingerprint])
                for task in group.tasks:
                    assert device_bill(sequential[task.key][1]) == bill


class TestOneGroupAtATime:
    @staticmethod
    def _live_at_each_construction(monkeypatch, collect):
        """Earlier builders still alive as each group's builder is made,
        over a three-group wave; *collect* runs the cyclic collector
        first."""
        settings = get_settings("minimal")
        requests = [
            JobRequest(molecule, settings, seed=i)
            for i, molecule in enumerate((hydrogen_molecule(), water(), methane()))
        ]
        built, live_at_construction = [], []
        construct = MatrixBuilder.__init__

        def tracked(self, *args, **kwargs):
            if collect:
                gc.collect()
            live_at_construction.append(sum(ref() is not None for ref in built))
            construct(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(MatrixBuilder, "__init__", tracked)
        outcome = run_fleet(fleet_tasks_from_requests(requests, commit="live"))
        assert not outcome.errors and outcome.report.n_groups == 3
        return live_at_construction

    def test_each_groups_builder_is_dead_before_the_next_is_built(
        self, monkeypatch
    ):
        """A wave holds one group's builder (and so its backend, kept
        blocks and Hartree plans) at a time, not every group's."""
        assert self._live_at_each_construction(monkeypatch, collect=True) == [0, 0, 0]

    def test_without_the_cyclic_collector_too(self, monkeypatch):
        """No reference cycle keeps a finished group's builder: with the
        collector off, each dies when its group returns (an engine that
        held its builder strongly left [0, 1, 2] alive here)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            live = self._live_at_each_construction(monkeypatch, collect=False)
        finally:
            if enabled:
                gc.enable()
        assert live == [0, 0, 0]


class TestFleetOf16Acceptance:
    """The issue's acceptance shape: 16 mixed molecules, one backend."""

    def test_mixed_fleet_byte_identical_and_fused(self):
        """Sixteen requests fuse onto four computations: payloads equal
        the sequential runs', and each group's profile is its run's."""
        settings = get_settings("minimal")
        molecules = [
            hydrogen_molecule(bond_length=1.40),
            hydrogen_molecule(bond_length=1.42),
            hydrogen_molecule(bond_length=1.44),
            water(),
        ]
        requests = [
            JobRequest(molecules[i % 4], settings, seed=i) for i in range(16)
        ]
        tasks = fleet_tasks_from_requests(requests, commit="accept")
        reference = sequential_runs(tasks, dedup=True)
        outcome = run_fleet(tasks)
        assert not outcome.errors
        assert fleet_bytes(outcome) == {k: ref for k, (ref, _) in reference.items()}
        report = outcome.report
        assert report.n_requests == 16
        assert report.n_groups == 4
        assert report.substrates == {"built": 4, "reused": 0}
        # Each group is its sequential run: its profile counts that run's
        # work, wall seconds aside, and is paid once for four requests.
        for group in plan_fleet(tasks).groups:
            _, want = reference[group.tasks[0].key]
            assert _counters(report.profiles[group.fingerprint]) == _counters(want)


def _counters(profile):
    """A profile dict without its wall-clock seconds."""
    phases = {
        name: {k: v for k, v in row.items() if k != "seconds"}
        for name, row in profile["phases"].items()
    }
    return {**profile, "phases": phases}


class TestPerMoleculeProfiles:
    """Each group's profile is its own sequential run's."""

    def test_device_counters_sum_to_shared_totals(self):
        """The fleet's device bill is the sum of its group profiles'
        bills, each the sequential run of that physics, paid once."""
        tasks = fleet_tasks_from_requests(h2_requests(4, 2), commit="prof")
        outcome = run_fleet(tasks)
        assert not outcome.errors
        bills = {fp: device_bill(p) for fp, p in outcome.report.profiles.items()}
        sequential = {k: device_bill(p) for k, (_, p) in sequential_runs(tasks).items()}
        # Four requests, two groups: the fleet's bill is the sequential
        # one of the two distinct runs, paid once each.
        for group in plan_fleet(tasks).groups:
            for task in group.tasks:
                assert bills[group.fingerprint] == sequential[task.key]
        launches = sum(b.launches for b in bills.values())
        assert 2 * launches == sum(b.launches for b in sequential.values())
        assert launches > 0


class TestGroupIsolation:
    def test_failing_group_poisons_only_its_own_requests(self):
        settings = get_settings("minimal")
        good = JobRequest(hydrogen_molecule(), settings, seed=0)
        # charge=1 leaves one electron: the restricted driver refuses.
        bad = JobRequest(hydrogen_molecule(), settings, charge=1, seed=1)
        tasks = fleet_tasks_from_requests([good, bad], commit="iso")
        outcome = run_fleet(tasks)
        assert set(outcome.results) == {tasks[0].key}
        assert set(outcome.errors) == {tasks[1].key}
        assert "SCFConvergenceError" in outcome.errors[tasks[1].key]


class TestPlanProperties:
    @given(
        payload_ids=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @hsettings(max_examples=40, deadline=None)
    def test_plan_is_permutation_invariant(self, payload_ids, seed):
        payloads = [
            JobRequest(m, charge=q).payload() for m in ("h2", "water") for q in (0, 2)
        ]
        tasks = [
            FleetTask(key=f"k{i}", payload=payloads[pid])
            for i, pid in enumerate(payload_ids)
        ]
        shuffled = list(tasks)
        random.Random(seed).shuffle(shuffled)
        assert plan_fleet(tasks).canonical() == plan_fleet(shuffled).canonical()
        assert len(plan_fleet(tasks).groups) == len(set(payload_ids))

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16), min_size=2, max_size=8
        )
    )
    @hsettings(max_examples=20, deadline=None)
    def test_seed_never_splits_a_group(self, seeds):
        payloads = [JobRequest("h2", seed=s).payload() for s in seeds]
        assert len({physics_fingerprint(p) for p in payloads}) == 1


class TestOneGroupPerServicePhysics:
    """The fleet groups by the service's own fingerprints: name, signed
    zeros and seed never split one physics into several groups."""

    def test_renamed_and_signed_zero_requests_share_one_group(self):
        settings = get_settings("minimal")
        h2 = hydrogen_molecule()
        flipped = structure_from_dict(
            {"symbols": list(h2.symbols), "coords": np.where(h2.coords == 0.0, -0.0, h2.coords)}
        )
        renamed = structure_from_dict(
            {"symbols": list(h2.symbols), "coords": h2.coords, "name": "hydrogen"}
        )
        requests = [
            JobRequest(molecule, settings, seed=seed)
            for seed, molecule in enumerate((h2, flipped, renamed))
        ]
        tasks = fleet_tasks_from_requests(requests, commit="groups")
        assert len(plan_fleet(tasks).groups) == 1
        outcome = run_fleet(tasks)
        assert not outcome.errors
        assert fleet_bytes(outcome) == sequential_reference(tasks)
        assert outcome.results[tasks[2].key]["molecule"] == "hydrogen"


class TestServiceFleetParity:
    """The statestore cache-key path: fleet pool == sequential pool."""

    def test_fleet_pool_drains_to_sequential_bytes(self):
        from repro.service import StateStore, WorkerPool, submit_batch
        from repro.service.statestore import COMPLETE

        requests = h2_requests(2, 2)

        def drain(fleet):
            store = StateStore(lease_seconds=5.0)
            submit_batch(store, requests, commit="svc", now=0.0)
            pool = WorkerPool(store, n_workers=1, fleet=fleet)
            report = pool.run_until_idle()
            assert report.completed == 2
            return {
                t.key: stable_result_bytes(store.result_for_key(t.key))
                for t in store.tasks(COMPLETE)
            }

        assert drain(None) == drain(2)

    def test_failures_read_the_same_through_both_pools(self):
        """One decode and one settle routine: a task that fails records
        the same typed ``TypeName: message`` string whether it ran as a
        wave of one or inside a fleet wave."""
        from repro.service import StateStore, WorkerPool, submit_job
        from repro.service.statestore import ERRORED

        def drain(fleet):
            store = StateStore(lease_seconds=5.0)
            store.submit({"kind": "noop"}, key="ck-noop", max_retries=0, now=0.0)
            submit_job(
                store,
                # An odd electron count: the restricted driver refuses.
                JobRequest("water", get_settings("minimal"), charge=1,
                           max_retries=0),
                commit="svc", now=0.0,
            )
            WorkerPool(store, n_workers=1, fleet=fleet).run_until_idle()
            return {t.key: t.error for t in store.tasks(ERRORED)}

        sequential, fleet = drain(None), drain(2)
        assert len(sequential) == 2
        assert sequential == fleet
        assert sequential["ck-noop"].startswith("ServiceError: ")
        assert any(e.startswith("SCFConvergenceError: ") for e in fleet.values())
