"""Hypothesis property tests for service cache-key stability.

The service result cache is only sound if its keys are (a) invariant
under representational noise — keyword ordering, equal-value
reconstruction, canonical-dict round trips — and (b) distinct under
*any* single physics-relevant change (a settings field, a coordinate,
the charge, the commit, the seed).
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings as hsettings, strategies as st

from repro.atoms import hydrogen_molecule, water
from repro.config import (
    CPSCFSettings,
    GridSettings,
    RunSettings,
    SCFSettings,
    get_settings,
)
from repro.service import JobRequest, cache_key, settings_fingerprint

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
        l_max_hartree=s.l_max_hartree, xc=s.xc, backend=s.backend,
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
        "xc": st.sampled_from(["lda", "pbe"]),
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
