"""Fleet bit-exactness harness: fleet-of-N vs N sequential runs.

The tentpole contract of the fleet driver: executing many molecules
through one shared substrate — shared geometry substrates, deduplicated
physics groups, interleaved SCF/CPSCF cycles, fused device launches —
changes **no result bytes** relative to running each request through an
isolated :meth:`~repro.core.simulator.PerturbationSimulator.run_physics`.

Pinned here:

* per-request payloads (via :func:`stable_result_bytes`) byte-identical
  to sequential references across both backends, with screening on
  and off, under shuffled submission order;
* a fleet-of-16 mixed-molecule acceptance run (device backend) with the
  model-throughput account cleared;
* per-molecule profile attribution: fleet per-group profiles sum to the
  shared cache/device totals;
* hypothesis properties: plan permutation-invariance, scoped LRU-key
  distinctness;
* one group per physics as the service keys it: a renamed request or
  one written with signed zeros joins its group and keeps its own name;
* service integration: a fleet-mode worker pool drains a statestore to
  the same bytes as a sequential pool (the cache-key path included).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import hydrogen_molecule, water
from repro.backends.batched import block_cache_key
from repro.config import RunSettings, get_settings
from repro.core import PerturbationSimulator, iter_physics
from repro.fleet import (
    FleetDriver,
    FleetTask,
    fleet_tasks_from_requests,
    physics_fingerprint,
    plan_fleet,
)
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.service.jobs import (
    JobRequest,
    physics_from_payload,
    structure_from_dict,
)
from repro.service.worker import result_payload, stable_result_bytes


def h2_requests(n, n_distinct, backend, threshold=0.0, level="minimal"):
    """n requests over n_distinct H2 bond-length variants."""
    settings = get_settings(
        level, backend=backend, screening_threshold=threshold
    )
    return [
        JobRequest(
            hydrogen_molecule(bond_length=1.40 + 0.02 * (i % n_distinct)),
            settings,
            seed=i,
        )
        for i in range(n)
    ]


def sequential_reference(tasks, dedup=False):
    """Per-key stable bytes from isolated sequential runs.

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
        out[task.key] = stable_result_bytes(
            result_payload(task, structure, settings, result)
        )
    return out


def fleet_bytes(outcome):
    return {k: stable_result_bytes(v) for k, v in outcome.results.items()}


class TestFleetParityMatrix:
    """Fleet-of-4 (2 distinct H2 variants) vs 4 isolated sequential runs."""

    @pytest.mark.parametrize("backend", ["numpy", "device"])
    @pytest.mark.parametrize(
        "threshold", [0.0, DEFAULT_SCREENING_THRESHOLD],
        ids=["dense", "screened"],
    )
    def test_fleet_matches_sequential(self, backend, threshold):
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, backend, threshold), commit="parity"
        )
        reference = sequential_reference(tasks)
        # Shuffled submission: the plan (and therefore the results) must
        # not depend on request order.
        shuffled = list(tasks)
        random.Random(f"{backend}-{threshold}").shuffle(shuffled)
        outcome = FleetDriver().run_tasks(shuffled)
        assert not outcome.errors
        assert fleet_bytes(outcome) == reference

    def test_interleaving_actually_happened(self):
        """The parity above must cover *interleaved* cycles, not a
        degenerate one-group-at-a-time schedule."""
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, "device"), commit="parity"
        )
        outcome = FleetDriver().run_tasks(tasks)
        report = outcome.report
        assert report.n_groups == 2
        # More priced rounds than any single group could produce alone,
        # and fused launch count strictly below the sequential account.
        assert report.rounds > 1
        assert (
            report.device["launches"]["fused"]
            < report.device["launches"]["sequential"]
        )


class TestOnePipeline:
    """``iter_physics`` is the generator both execution modes advance."""

    @pytest.mark.parametrize("backend", ["numpy", "device"])
    def test_hand_interleaved_generators_match_eager_runs(self, backend):
        tasks = fleet_tasks_from_requests(
            h2_requests(2, 2, backend), commit="seam"
        )
        decoded = [physics_from_payload(t.payload) for t in tasks]
        eager = [
            PerturbationSimulator(s, cfg, charge=q).run_physics()
            for s, cfg, q in decoded
        ]
        # Advance the two molecules alternately, one cycle each, the
        # way the fleet's round-robin scheduler does.
        live = {i: iter_physics(*args) for i, args in enumerate(decoded)}
        interleaved = {}
        while live:
            for i in sorted(live):
                try:
                    next(live[i])
                except StopIteration as stop:
                    interleaved[i] = stop.value
                    del live[i]
        for i, (task, (structure, cfg, _)) in enumerate(zip(tasks, decoded)):
            assert stable_result_bytes(
                result_payload(task, structure, cfg, interleaved[i])
            ) == stable_result_bytes(
                result_payload(task, structure, cfg, eager[i])
            )


class TestFleetOf16Acceptance:
    """The issue's acceptance shape: 16 mixed molecules, one backend."""

    def test_mixed_fleet_byte_identical_and_fused(self):
        settings = get_settings("minimal", backend="device")
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
        reference = sequential_reference(tasks, dedup=True)
        outcome = FleetDriver().run_tasks(tasks)
        assert not outcome.errors
        assert fleet_bytes(outcome) == reference
        report = outcome.report
        assert report.n_requests == 16
        assert report.n_groups == 4
        assert report.substrates == {"built": 4, "reused": 0}
        # The fused model account beats per-group sequential pricing.
        assert report.device["fusion_speedup"] > 1.0


class TestPerMoleculeProfiles:
    """Fleet profiles attribute shared-resource traffic per molecule."""

    def test_batched_cache_counters_sum_to_shared_totals(self):
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, "numpy"), commit="prof"
        )
        outcome = FleetDriver().run_tasks(tasks)
        assert not outcome.errors
        report = outcome.report
        assert len(report.profiles) == 2
        hits = sum(p["cache"]["hits"] for p in report.profiles.values())
        misses = sum(p["cache"]["misses"] for p in report.profiles.values())
        evictions = sum(
            p["cache"]["evictions"] for p in report.profiles.values()
        )
        assert hits == report.cache["hits"] > 0
        assert misses == report.cache["misses"] > 0
        assert evictions == report.cache["evictions"]
        # Every per-molecule profile saw real traffic of its own.
        assert all(
            p["cache"]["hits"] > 0 and p["cache"]["misses"] > 0
            for p in report.profiles.values()
        )

    # An H2 block is 66 560 bytes: 100 000 holds one molecule's, not both.
    @pytest.mark.parametrize("budget", [None, 100_000], ids=["default", "lru"])
    def test_default_backend_wave_shares_one_scoped_cache(self, budget):
        """Every host molecule of a wave reads the run's one block
        cache under its own scope — whatever the budget, the results
        stay byte-identical to isolated sequential runs."""
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, get_settings("minimal").backend), commit="share"
        )
        driver = FleetDriver() if budget is None else FleetDriver(
            max_cache_bytes=budget
        )
        outcome = driver.run_tasks(tasks)
        assert not outcome.errors
        assert fleet_bytes(outcome) == sequential_reference(tasks, dedup=True)
        cache = driver._cache
        scopes = {key[0] for key in cache._blocks}
        assert scopes <= set(outcome.report.profiles)
        if budget is None:
            # Both molecules' blocks are resident side by side.
            assert scopes == set(outcome.report.profiles)
            assert outcome.report.cache["evictions"] == 0
            per_molecule = max(
                p["phases"]["basis"]["elements"]
                for p in outcome.report.profiles.values()
            )
            assert outcome.report.cache["peak_bytes"] > 8 * per_molecule
        else:
            assert outcome.report.cache["evictions"] > 0
            assert cache.current_bytes <= budget and len(cache) == 1

    def test_device_counters_sum_to_shared_totals(self):
        tasks = fleet_tasks_from_requests(
            h2_requests(4, 2, "device"), commit="prof"
        )
        outcome = FleetDriver().run_tasks(tasks)
        assert not outcome.errors
        report = outcome.report
        launches = sum(
            p["device"]["launches"] for p in report.profiles.values()
        )
        transferred = sum(
            p["device"]["bytes_transferred"] for p in report.profiles.values()
        )
        modeled = sum(
            p["device"]["modeled_seconds"] for p in report.profiles.values()
        )
        assert launches == report.device["launches"]["sequential"] > 0
        assert transferred == report.device["bytes_transferred"] > 0
        # Per-molecule profiles carry the *unfused* prices; their sum is
        # the device's sequential account (float association aside).
        sequential = report.device["modeled"]["sequential"]["modeled_seconds"]
        assert np.isclose(modeled, sequential, rtol=1e-12, atol=0.0)
        assert (
            report.device["modeled"]["fused"]["modeled_seconds"] < sequential
        )


class TestGroupIsolation:
    def test_failing_group_poisons_only_its_own_requests(self):
        settings = get_settings("minimal")
        good = JobRequest(hydrogen_molecule(), settings, seed=0)
        # charge=1 leaves one electron: the restricted driver refuses.
        bad = JobRequest(hydrogen_molecule(), settings, charge=1, seed=1)
        tasks = fleet_tasks_from_requests([good, bad], commit="iso")
        outcome = FleetDriver().run_tasks(tasks)
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
        outcome = FleetDriver().run_tasks(tasks)
        assert not outcome.errors
        assert fleet_bytes(outcome) == sequential_reference(tasks)
        assert outcome.results[tasks[2].key]["molecule"] == "hydrogen"


class TestScopedCacheKeys:
    @given(
        batch=st.integers(min_value=0, max_value=500),
        scopes=st.lists(
            st.text(
                alphabet="abcdef0123456789", min_size=1, max_size=8
            ),
            min_size=2,
            max_size=5,
            unique=True,
        ),
        active_hash=st.one_of(st.none(), st.sampled_from(["a1", "b2"])),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_distinct_scopes_never_collide(self, batch, scopes, active_hash):
        keys = {
            block_cache_key(batch, scope=s, active_hash=active_hash)
            for s in scopes
        }
        assert len(keys) == len(scopes)
        # Scoped keys never collide with a private cache's unscoped
        # ones either.
        assert block_cache_key(batch) not in keys
        assert block_cache_key(batch, active_hash="a1") not in keys


class TestServiceFleetParity:
    """The statestore cache-key path: fleet pool == sequential pool."""

    def test_fleet_pool_drains_to_sequential_bytes(self):
        from repro.service import StateStore, WorkerPool, submit_batch
        from repro.service.statestore import COMPLETE

        requests = h2_requests(2, 2, "numpy")

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
