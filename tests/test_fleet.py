"""Fleet bit-exactness harness: a wave of N vs N sequential runs.

The contract of :func:`~repro.fleet.run_wave`: executing many requests
as one wave — shared geometry substrates, deduplicated physics groups
run one after another — changes **no result bytes** relative to running
each request through an isolated
:meth:`~repro.core.simulator.PerturbationSimulator.run_physics`.

The wave reports nothing but its payloads, so these tests observe it
through wrapped :func:`repro.core.simulator.run_physics` and
:func:`repro.dft.hamiltonian.build_substrate` (:func:`recording`), which
note each call.  Pinned here:

* per-request payloads (via :func:`stable_result_bytes`) byte-identical
  to sequential references, with screening on and off, under shuffled
  submission order, and each group's device bill its sequential run's;
* a wave-of-16 mixed-molecule acceptance run: four groups on four
  freshly built substrates, none reused, each group's profile its
  sequential run's;
* one group live at a time: an earlier group's builder is dead when the
  next group's is constructed, by reference counting alone;
* hypothesis properties: groups permutation-invariant, seed-blind;
* one group per physics as the service keys it: a renamed request or
  one written with signed zeros joins its group and keeps its own name;
* service integration: a wave pool drains a statestore to the same
  bytes as a sequential pool, and both reach the one wave function.
"""

from __future__ import annotations

import gc
import random
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro import fleet
from repro.atoms import hydrogen_molecule, methane, water
from repro.backends import device_bill
from repro.config import RunSettings, get_settings
from repro.core import PerturbationSimulator, simulator
from repro.dft.hamiltonian import MatrixBuilder
from repro.errors import SCFConvergenceError
from repro.fleet import physics_fingerprint, run_wave
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.service.jobs import JobRequest, structure_from_dict
from repro.service.statestore import TaskRecord
from repro.service.worker import result_payload, run_physics_task, stable_result_bytes


def tasks_of(requests, commit):
    """Statestore tasks (key and payload are all a wave reads) for requests."""
    return [
        TaskRecord(task_id=f"t{i}", key=req.key(commit), payload=req.payload())
        for i, req in enumerate(requests)
    ]


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


def recording(monkeypatch):
    """Wrap ``run_physics`` and ``build_substrate``; return their call log.

    ``runs`` holds one ``(substrate, profile dict)`` per group the wave
    ran, in run order; ``built`` every substrate built.  Start it after
    the sequential references: those call ``run_physics`` too.
    """
    log = SimpleNamespace(runs=[], built=[])
    run_physics, build_substrate = simulator.run_physics, fleet.build_substrate

    def run(*args, substrate=None, **kwargs):
        result = run_physics(*args, substrate=substrate, **kwargs)
        log.runs.append((substrate, result.backend_profile.as_dict()))
        return result

    def build(*args):
        log.built.append(build_substrate(*args))
        return log.built[-1]

    monkeypatch.setattr(simulator, "run_physics", run)
    monkeypatch.setattr(fleet, "build_substrate", build)
    return log


def group_profiles(tasks, log):
    """fingerprint -> profile of the run of that group (groups run sorted)."""
    fingerprints = sorted({physics_fingerprint(t.payload) for t in tasks})
    assert len(fingerprints) == len(log.runs)
    return {fp: profile for fp, (_, profile) in zip(fingerprints, log.runs)}


def wave_bytes(tasks, outcomes):
    """Per-key stable bytes of a wave that must not have failed anywhere."""
    assert [error for _, error in outcomes] == [None] * len(tasks)
    return {t.key: stable_result_bytes(p) for t, (p, _) in zip(tasks, outcomes)}


class TestFleetParityMatrix:
    """Wave-of-4 (2 distinct H2 variants) vs 4 isolated sequential runs:
    the payloads (``numpy``), and each group's device bill too
    (``device``, the same runs priced on HPC#2)."""

    @pytest.mark.parametrize("backend", ["numpy", "device"])
    @pytest.mark.parametrize(
        "threshold", [0.0, DEFAULT_SCREENING_THRESHOLD],
        ids=["dense", "screened"],
    )
    def test_fleet_matches_sequential(self, backend, threshold, monkeypatch):
        tasks = tasks_of(h2_requests(4, 2, threshold), commit="parity")
        sequential = sequential_runs(tasks)
        log = recording(monkeypatch)
        # Shuffled submission: the groups (and therefore the results)
        # must not depend on request order.
        shuffled = list(tasks)
        random.Random(f"{backend}-{threshold}").shuffle(shuffled)
        got = wave_bytes(shuffled, run_wave(shuffled))
        assert got == {k: ref for k, (ref, _) in sequential.items()}
        if backend == "device":
            profiles = group_profiles(tasks, log)
            for task in tasks:
                bill = device_bill(profiles[physics_fingerprint(task.payload)])
                assert device_bill(sequential[task.key][1]) == bill


class TestOneGroupAtATime:
    @staticmethod
    def _live_at_each_construction(monkeypatch, collect, settings=None):
        """Earlier builders still alive as each group's builder is made,
        over a three-group wave, and the wave's outcomes; *collect* runs
        the cyclic collector first."""
        settings = settings or get_settings("minimal")
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
        tasks = tasks_of(requests, commit="live")
        return live_at_construction, tasks, run_wave(tasks)

    def test_each_groups_builder_is_dead_before_the_next_is_built(
        self, monkeypatch
    ):
        """A wave holds one group's builder (and so its backend, kept
        blocks and Hartree plans) at a time, not every group's."""
        live, tasks, outcomes = self._live_at_each_construction(monkeypatch, collect=True)
        wave_bytes(tasks, outcomes)
        assert live == [0, 0, 0]

    def test_without_the_cyclic_collector_too(self, monkeypatch):
        """No reference cycle keeps a finished group's builder: with the
        collector off, each dies when its group returns (an engine that
        held its builder strongly left [0, 1, 2] alive here)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            live, tasks, outcomes = self._live_at_each_construction(
                monkeypatch, collect=False
            )
        finally:
            if enabled:
                gc.enable()
        wave_bytes(tasks, outcomes)
        assert live == [0, 0, 0]

    def test_a_failed_groups_builder_dies_with_it(self, monkeypatch):
        """Three groups whose SCF runs out of cycles: the wave keeps each
        error for its tasks, but not the frames it was raised in (with
        their tracebacks the errors kept [0, 1, 2] builders alive)."""
        settings = get_settings("minimal").with_scf(max_iterations=1)
        live, _, outcomes = self._live_at_each_construction(
            monkeypatch, collect=True, settings=settings
        )
        assert all(isinstance(error, SCFConvergenceError) for _, error in outcomes)
        assert live == [0, 0, 0]


class TestFleetOf16Acceptance:
    """The issue's acceptance shape: 16 mixed molecules, one backend."""

    def test_mixed_fleet_byte_identical_and_fused(self, monkeypatch):
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
        tasks = tasks_of(requests, commit="accept")
        reference = sequential_runs(tasks, dedup=True)
        log = recording(monkeypatch)
        outcomes = run_wave(tasks)
        assert len(outcomes) == 16
        assert wave_bytes(tasks, outcomes) == {k: ref for k, (ref, _) in reference.items()}
        # Four groups, four substrates built and none reused: each run
        # got the substrate built for it.
        assert len(log.runs) == 4
        assert len(log.built) == 4
        assert all(sub is built for (sub, _), built in zip(log.runs, log.built))
        # Each group is its sequential run: its profile counts that run's
        # work, wall seconds aside, and is paid once for four requests.
        profiles = group_profiles(tasks, log)
        for task in tasks:
            _, want = reference[task.key]
            got = profiles[physics_fingerprint(task.payload)]
            assert _counters(got) == _counters(want)


def _counters(profile):
    """A profile dict without its wall-clock seconds."""
    phases = {
        name: {k: v for k, v in row.items() if k != "seconds"}
        for name, row in profile["phases"].items()
    }
    return {**profile, "phases": phases}


class TestPerMoleculeProfiles:
    """Each group's profile is its own sequential run's."""

    def test_device_counters_sum_to_shared_totals(self, monkeypatch):
        """The wave's device bill is the sum of its group profiles'
        bills, each the sequential run of that physics, paid once."""
        tasks = tasks_of(h2_requests(4, 2), commit="prof")
        sequential = {k: device_bill(p) for k, (_, p) in sequential_runs(tasks).items()}
        log = recording(monkeypatch)
        wave_bytes(tasks, run_wave(tasks))
        bills = {fp: device_bill(p) for fp, p in group_profiles(tasks, log).items()}
        # Four requests, two groups: the wave's bill is the sequential
        # one of the two distinct runs, paid once each.
        for task in tasks:
            assert bills[physics_fingerprint(task.payload)] == sequential[task.key]
        launches = sum(b.launches for b in bills.values())
        assert 2 * launches == sum(b.launches for b in sequential.values())
        assert launches > 0


class TestGroupIsolation:
    def test_failing_group_poisons_only_its_own_requests(self):
        settings = get_settings("minimal")
        good = JobRequest(hydrogen_molecule(), settings, seed=0)
        # charge=1 leaves one electron: the restricted driver refuses.
        bad = JobRequest(hydrogen_molecule(), settings, charge=1, seed=1)
        (payload, error), (no_payload, bad_error) = run_wave(
            tasks_of([good, bad], commit="iso")
        )
        assert payload is not None and error is None
        assert no_payload is None
        assert isinstance(bad_error, SCFConvergenceError)


class TestPlanProperties:
    @given(
        payload_ids=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @hsettings(max_examples=40, deadline=None)
    def test_plan_is_permutation_invariant(self, payload_ids, seed):
        """One run per distinct payload, the same runs in the same order
        for any submission order, and each task poisoned by its own
        group's run (the runs are stubs that raise their index)."""
        payloads = [
            JobRequest(m, charge=q).payload() for m in ("h2", "water") for q in (0, 2)
        ]
        tasks = [
            SimpleNamespace(key=f"k{i}", payload=payloads[pid])
            for i, pid in enumerate(payload_ids)
        ]
        shuffled = list(tasks)
        random.Random(seed).shuffle(shuffled)

        def groups(order):
            runs = []

            def run(structure, settings, charge, substrate):
                runs.append((structure.name, charge))
                raise RuntimeError(str(len(runs)))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulator, "run_physics", run)
                mp.setattr(fleet, "build_substrate", lambda *args: None)
                outcomes = run_wave(order)
            by_run = {}
            for task, (payload, error) in zip(order, outcomes):
                assert payload is None
                by_run.setdefault(str(error), []).append(task.key)
            return runs, {run: sorted(keys) for run, keys in by_run.items()}

        assert groups(tasks) == groups(shuffled)
        assert len(groups(tasks)[0]) == len(set(payload_ids))

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
    """The wave groups by the service's own fingerprints: name, signed
    zeros and seed never split one physics into several groups."""

    def test_renamed_and_signed_zero_requests_share_one_group(self, monkeypatch):
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
        tasks = tasks_of(requests, commit="groups")
        reference = sequential_reference(tasks)
        log = recording(monkeypatch)
        outcomes = run_wave(tasks)
        assert len(log.runs) == 1
        assert wave_bytes(tasks, outcomes) == reference
        assert outcomes[2][0]["molecule"] == "hydrogen"


class TestServiceFleetParity:
    """The statestore cache-key path: wave pool == sequential pool."""

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
        wave of one or inside a larger wave."""
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


class TestOneWaveFunction:
    """A sequential job is the wave of one: there is no second path."""

    def test_both_pools_reach_the_one_wave_function(self, monkeypatch):
        """Without ``fleet`` each job is a wave of one; with ``fleet=16``
        the two jobs are one wave of two — both through ``run_wave``."""
        from repro.service import StateStore, WorkerPool, submit_batch
        from repro.service.statestore import COMPLETE

        waves = []
        run = fleet.run_wave

        def counted(tasks):
            waves.append(len(tasks))
            return run(tasks)

        monkeypatch.setattr(fleet, "run_wave", counted)

        def drain(size):
            store = StateStore(lease_seconds=5.0)
            submit_batch(store, h2_requests(2, 1), commit="one", now=0.0)
            WorkerPool(store, n_workers=1, fleet=size).run_until_idle()
            return {
                t.key: stable_result_bytes(store.result_for_key(t.key))
                for t in store.tasks(COMPLETE)
            }

        sequential = drain(None)
        assert waves == [1, 1]
        assert drain(16) == sequential and len(sequential) == 2
        assert waves == [1, 1, 2]

    def test_run_physics_task_raises_what_the_wave_records(self):
        """An undecodable payload: ``run_physics_task`` raises the very
        ``TypeName: message`` the wave records for it."""
        task = TaskRecord(task_id="t0", key="ck-noop", payload={"kind": "noop"})
        ((payload, recorded),) = run_wave([task])
        assert payload is None
        with pytest.raises(type(recorded)) as raised:
            run_physics_task(task)
        assert (
            f"{type(raised.value).__name__}: {raised.value}"
            == f"{type(recorded).__name__}: {recorded}"
        )
        assert str(recorded)
