"""Hypothesis property tests for service cache-key stability.

The service result cache is only sound if its keys are (a) invariant
under representational noise — keyword ordering, equal-value
reconstruction, canonical-dict round trips, a signed zero — and (b)
distinct under *any* single physics-relevant change (a settings field,
a coordinate, the charge, the commit, the seed).  The commit ingredient
comes from :func:`repro.obs.report.collect_provenance`, which reads git
once per process and only from the checkout the package lives in.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import shutil
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import Structure, hydrogen_molecule, water
from repro.config import (
    CPSCFSettings,
    GridSettings,
    RunSettings,
    SCFSettings,
    get_settings,
)
from repro.errors import SettingsError
from repro.obs import report
from repro.obs.report import RunReport, collect_provenance
from repro.service import (
    ERRORED,
    JobRequest,
    StateStore,
    WorkerPool,
    cache_key,
    physics_from_payload,
    result_payload,
    settings_fingerprint,
    stable_result_bytes,
    structure_fingerprint,
    submit_job,
)

COMMIT = "deadbee"

# Strategies for every top-level / nested RunSettings field.
_grid = st.builds(
    GridSettings,
    n_radial_base=st.integers(8, 48),
    n_angular=st.sampled_from([26, 50, 110]),
    radial_multiplier=st.floats(0.5, 2.0, allow_nan=False),
    batch_target_points=st.integers(32, 400),
    becke_smoothing=st.integers(1, 5),
)
_scf = st.builds(
    SCFSettings,
    max_iterations=st.integers(10, 100),
    density_tolerance=st.sampled_from([1e-5, 1e-6, 1e-7]),
    mixing_factor=st.floats(0.1, 0.9, allow_nan=False),
    pulay_history=st.integers(2, 10),
)
_cpscf = st.builds(
    CPSCFSettings,
    max_iterations=st.integers(10, 80),
    response_tolerance=st.sampled_from([1e-5, 1e-6]),
    mixing_factor=st.floats(0.1, 0.9, allow_nan=False),
)
_settings = st.builds(
    RunSettings,
    level=st.sampled_from(["minimal", "light", "tight"]),
    grids=_grid,
    scf=_scf,
    cpscf=_cpscf,
    l_max_hartree=st.integers(2, 8),
    backend=st.sampled_from(["numpy", "device"]),
    verify=st.sampled_from(["off", "cheap", "full"]),
    screening_threshold=st.sampled_from([0.0, 1e-8, 1e-6, 1e-4]),
)


@given(s=_settings)
@hsettings(max_examples=40, deadline=None)
def test_key_invariant_under_equal_value_reconstruction(s):
    """Two independently built but equal settings share one key."""
    clone = RunSettings(
        level=s.level, grids=GridSettings(**dataclasses.asdict(s.grids)),
        scf=SCFSettings(**dataclasses.asdict(s.scf)),
        cpscf=CPSCFSettings(**dataclasses.asdict(s.cpscf)),
        l_max_hartree=s.l_max_hartree, backend=s.backend,
        verify=s.verify, screening_threshold=s.screening_threshold,
    )
    mol = hydrogen_molecule()
    assert cache_key(mol, s, commit=COMMIT) == cache_key(mol, clone,
                                                         commit=COMMIT)


@given(s=_settings, seed=st.integers(0, 2**32 - 1))
@hsettings(max_examples=40, deadline=None)
def test_key_invariant_under_field_ordering(s, seed):
    """Constructing from shuffled kwargs cannot change the key."""
    fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}
    names = list(fields)
    random.Random(seed).shuffle(names)
    shuffled = RunSettings(**{name: fields[name] for name in names})
    assert settings_fingerprint(shuffled) == settings_fingerprint(s)


@given(s=_settings)
@hsettings(max_examples=40, deadline=None)
def test_key_invariant_under_canonical_round_trip(s):
    rebuilt = RunSettings.from_canonical_dict(s.as_canonical_dict())
    assert rebuilt == s
    assert settings_fingerprint(rebuilt) == settings_fingerprint(s)


@given(s=_settings)
@hsettings(max_examples=20, deadline=None)
def test_key_invariant_under_signed_zero_setting(s):
    """``-0.0 == 0.0`` as a field value, so the two share one key."""
    pos = dataclasses.replace(s, screening_threshold=0.0)
    neg = dataclasses.replace(s, screening_threshold=-0.0)
    assert neg == pos
    assert settings_fingerprint(neg) == settings_fingerprint(pos)


@pytest.mark.parametrize("level", ["minimal", "light"])
def test_an_int_in_a_float_field_keys_as_its_float(level):
    """``0 == 0.0`` and ``1 == 1.0`` as field values, top-level and
    nested, so each pair shares one key — the float's, already pinned."""
    s = get_settings(level)
    pairs = [
        (dataclasses.replace(s, screening_threshold=0), s),
        (s.with_scf(mixing_factor=1), s.with_scf(mixing_factor=1.0)),
        (s.with_grids(radial_multiplier=1), s),
    ]
    for as_int, as_float in pairs:
        assert as_int == as_float
        assert settings_fingerprint(as_int) == settings_fingerprint(as_float)
        assert (cache_key(hydrogen_molecule(), as_int, commit=COMMIT)
                == cache_key(hydrogen_molecule(), as_float, commit=COMMIT))


@given(eps=st.floats(0.0, 4e-13, allow_nan=False))
@hsettings(max_examples=25, deadline=None)
def test_key_invariant_when_a_coordinate_straddles_zero(eps):
    """z = -eps and z = +eps both round to zero: one fingerprint."""
    def h2(z):
        return Structure(["H", "H"], np.array([[0.0, 0.0, z], [0.0, 0.0, 1.4]]))

    assert structure_fingerprint(h2(-eps)) == structure_fingerprint(h2(eps))


@given(s=_settings, data=st.data())
@hsettings(max_examples=60, deadline=None)
def test_key_distinct_under_any_single_field_change(s, data):
    """Perturbing exactly one (possibly nested) field changes the key."""
    flat = {
        "level": st.sampled_from(["minimal", "light", "tight", "custom"]),
        "l_max_hartree": st.integers(2, 9),
        "backend": st.sampled_from(["numpy", "device"]),
        "verify": st.sampled_from(["off", "cheap", "full"]),
        "screening_threshold": st.sampled_from([0.0, 1e-8, 1e-6, 1e-4]),
        "grids.n_radial_base": st.integers(8, 49),
        "grids.n_angular": st.sampled_from([26, 50, 110, 194]),
        "scf.max_iterations": st.integers(10, 101),
        "scf.mixing_factor": st.floats(0.1, 0.9, allow_nan=False),
        "cpscf.max_iterations": st.integers(10, 81),
    }
    path = data.draw(st.sampled_from(sorted(flat)), label="field")
    new_value = data.draw(flat[path], label="value")
    if "." in path:
        group, leaf = path.split(".")
        if getattr(getattr(s, group), leaf) == new_value:
            return  # same value drawn — nothing must change
        inner = dataclasses.replace(getattr(s, group), **{leaf: new_value})
        changed = dataclasses.replace(s, **{group: inner})
    else:
        if getattr(s, path) == new_value:
            return
        changed = dataclasses.replace(s, **{path: new_value})
    mol = hydrogen_molecule()
    assert cache_key(mol, changed, commit=COMMIT) != cache_key(mol, s,
                                                               commit=COMMIT)


@given(dz=st.floats(1e-6, 0.5, allow_nan=False))
@hsettings(max_examples=25, deadline=None)
def test_key_distinct_under_geometry_change(dz):
    s = get_settings("minimal")
    base = hydrogen_molecule()
    stretched = hydrogen_molecule(bond_length=base.coords[1, 2] * 2 + dz)
    assert cache_key(base, s, commit=COMMIT) != cache_key(stretched, s,
                                                          commit=COMMIT)


def test_key_distinct_across_molecules_charge_commit_and_seed():
    s = get_settings("minimal")
    h2, h2o = hydrogen_molecule(), water()
    base = cache_key(h2, s, commit=COMMIT)
    assert cache_key(h2o, s, commit=COMMIT) != base
    assert cache_key(h2, s, 1, commit=COMMIT) != base
    assert cache_key(h2, s, commit="0000000") != base
    assert cache_key(h2, s, commit=COMMIT, seed=7) != base


def test_job_request_key_matches_cache_key():
    s = get_settings("minimal")
    req = JobRequest("h2", s, charge=0)
    assert req.key(commit=COMMIT) == cache_key(hydrogen_molecule(), s,
                                               commit=COMMIT)


def test_key_is_stable_across_processes_shape():
    """Keys carry the ck- prefix and a fixed-length hex body."""
    key = cache_key(hydrogen_molecule(), get_settings("minimal"),
                    commit=COMMIT)
    assert key.startswith("ck-") and len(key) == 3 + 32
    int(key[3:], 16)  # hex body parses


@pytest.mark.parametrize("molecule,level,key", [
    (hydrogen_molecule, "minimal", "ck-0f7bba237cdb3080db6b7c07dbff7dd9"),
    (hydrogen_molecule, "light", "ck-eb5cd6feaed9137116606df27fca15d4"),
    (water, "minimal", "ck-3d67a40a039b410f47a9d7f09fc18595"),
    (water, "light", "ck-e2cb853992d7007da193fe099e412053"),
])
def test_recorded_keys_hold(molecule, level, key):
    """Keys recorded before the signed-zero normalisation and the
    declared-type one still match.  Re-pinned twice, when the settings
    dict lost its ``tuning`` block and when it lost the unread ``xc``
    and ``scf.occupation_width`` fields: a key also hashes the commit,
    so keys already change with every commit and no cached result is
    stranded that a new commit would not have stranded anyway."""
    assert cache_key(molecule(), get_settings(level), commit=COMMIT) == key


#: A payload journaled while the settings still carried a ``tuning`` block
#: and the retired ``xc`` / ``scf.occupation_width`` fields.
_PAYLOAD_WITH_TUNING = {
    "charge": 0, "kind": "physics", "seed": None,
    "settings": {
        "backend": "numpy",
        "cpscf": {"max_iterations": 40, "mixing_factor": 0.5,
                  "response_tolerance": 1e-06},
        "grids": {"batch_target_points": 64, "becke_smoothing": 3,
                  "n_angular": 26, "n_radial_base": 16,
                  "radial_multiplier": 1.0},
        "l_max_hartree": 4, "level": "minimal",
        "scf": {"density_tolerance": 1e-06, "energy_tolerance": 1e-08,
                "max_iterations": 60, "mixing_factor": 0.35,
                "occupation_width": 0.0, "pulay_history": 6},
        "screening_threshold": 0.0,
        "tuning": {"budget": 3, "mode": "off", "n_ranks": 4,
                   "warm_start": True},
        "verify": "off", "xc": "lda",
    },
    "structure": {
        "coords": [[0.0, 0.0, -0.700521474398773],
                   [0.0, 0.0, 0.700521474398773]],
        "name": "H2", "symbols": ["H", "H"],
    },
}


def test_a_payload_with_a_tuning_block_still_decodes():
    structure, settings, charge = physics_from_payload(_PAYLOAD_WITH_TUNING)
    assert settings == get_settings("minimal") and charge == 0
    assert structure_fingerprint(structure) == structure_fingerprint(
        hydrogen_molecule()
    )
    legacy = _PAYLOAD_WITH_TUNING["settings"]
    assert JobRequest("h2", settings).payload()["settings"] == dict(
        {k: v for k, v in legacy.items() if k not in ("tuning", "xc")},
        scf={k: v for k, v in legacy["scf"].items() if k != "occupation_width"},
    )


def _legacy_payload(xc="lda", occupation_width=0.0):
    payload = copy.deepcopy(_PAYLOAD_WITH_TUNING)
    payload["settings"]["xc"] = xc
    payload["settings"]["scf"]["occupation_width"] = occupation_width
    return payload


def test_a_payload_with_the_retired_fields_runs_bit_identically():
    """``xc="lda"`` and ``occupation_width=0.0`` were the only values
    any run computed with: such a payload is today's request."""
    legacy, today = StateStore(), StateStore()
    legacy.submit(_legacy_payload(), key="ck-h2", now=0.0)
    payload = JobRequest("h2", get_settings("minimal")).payload()
    today.submit(payload, key="ck-h2", now=0.0)
    for store in (legacy, today):
        assert WorkerPool(store, n_workers=1).run_until_idle().completed == 1
    assert stable_result_bytes(legacy.result_for_key("ck-h2")) == (
        stable_result_bytes(today.result_for_key("ck-h2"))
    )


@pytest.mark.parametrize("retired", [
    {"xc": "pbe"}, {"occupation_width": 0.01},
], ids=["pbe", "smearing"])
def test_a_payload_naming_physics_never_run_is_a_failed_attempt(retired):
    payload = _legacy_payload(**retired)
    with pytest.raises(SettingsError, match=next(iter(retired))):
        physics_from_payload(payload)
    store = StateStore()
    store.submit(payload, key="ck-h2", max_retries=0, now=0.0)
    report = WorkerPool(store, n_workers=1).run_until_idle()
    assert (report.completed, report.failed) == (0, 1)
    (task,) = store.tasks(ERRORED)
    assert task.error.startswith("SettingsError: ")


# ----------------------------------------------------------------------
# The commit ingredient: git read once per process, from our checkout
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_git_memo():
    """Clear the memoized git read before and after the test."""
    report._git_state.cache_clear()
    yield
    report._git_state.cache_clear()


def test_git_is_read_once_per_process(fresh_git_memo, monkeypatch, tmp_path):
    real, seen = subprocess.run, []

    def counting(argv, *args, **kwargs):
        seen.append(argv[1])
        return real(argv, *args, **kwargs)

    monkeypatch.setattr(report.subprocess, "run", counting)
    s = get_settings("minimal")
    store = StateStore(tmp_path / "journal.jsonl")
    for i in range(50):
        assert submit_job(store, JobRequest("h2", s, seed=i)).fresh
    pool = WorkerPool(store, n_workers=2, runner=lambda task: {"ok": True})
    assert pool.run_until_idle().completed == 50
    ground = SimpleNamespace(total_energy=-1.1, iterations=5,
                             dipole_moment=lambda: np.zeros(3))
    physics = SimpleNamespace(
        ground_state=ground, cpscf_iterations_per_direction=(4, 4, 4),
        polarizability=np.eye(3), phase_seconds={},
    )
    payload = result_payload(store.tasks()[0], hydrogen_molecule(), s, physics)
    run = RunReport.from_run("once", seed=3)
    assert seen.count("rev-parse") <= 1 and seen.count("status") <= 1
    assert payload["provenance"]["commit"] == run.provenance.commit


def test_default_commit_is_the_provenance_commit():
    mol, s = hydrogen_molecule(), get_settings("minimal")
    assert cache_key(mol, s) == cache_key(mol, s,
                                          commit=collect_provenance().commit)


def test_each_provenance_is_a_fresh_object():
    a, b = collect_provenance(seed=1), collect_provenance(seed=2)
    assert a is not b and (a.seed, b.seed) == (1, 2)
    a.machines.append("mutated")
    assert "mutated" not in collect_provenance().machines


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_only_from_the_checkout_the_package_lives_in(fresh_git_memo,
                                                            tmp_path):
    """A package inside *another* project's work tree stamps no commit."""
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    own = tmp_path / "src" / "repro"
    foreign = tmp_path / "venv" / "lib" / "site-packages" / "repro"
    own.mkdir(parents=True)
    (own / "__init__.py").write_text("")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one commit")
    assert report._git_state(own) == (git("rev-parse", "--short", "HEAD"),
                                      False)
    foreign.mkdir(parents=True)
    assert report._git_state(foreign) == ("unknown", False)
