"""Hostile geometries, fuzzed: every one is refused before any work.

Four kinds of input no run can use — a NaN / inf coordinate, two nuclei
closer than a quarter of their covalent radii, an unknown element symbol
and a charge that leaves no electrons or more than the basis holds — go
through the two entry points that accept a geometry: ``JobRequest`` /
``submit_job`` and ``repro.cli.main(["physics" | "submit", …])``.  Each
must end in a typed :class:`~repro.errors.ReproError` (exit 2 at the
CLI) with nothing journaled and no traceback.  Only rejection paths run,
so a case costs milliseconds and the example counts stay small.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atoms.element import ELEMENTS, element
from repro.atoms.structure import Structure
from repro.cli import main
from repro.config import get_settings
from repro.constants import BOHR_IN_ANGSTROM
from repro.errors import ReproError
from repro.service import JobRequest, StateStore, submit_job

SYMBOLS = sorted(ELEMENTS)
FUZZ = settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(-20.0, 20.0, allow_nan=False)


@st.composite
def non_finite(draw):
    """A well-spaced pair of atoms with one coordinate NaN or +-inf."""
    symbols = [draw(st.sampled_from(SYMBOLS)) for _ in range(2)]
    coords = [[0.0, 0.0, 0.0], [draw(finite), draw(finite), 5.0]]
    coords[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    return symbols, coords, 0


@st.composite
def near_coincident(draw):
    """Two nuclei inside nine tenths of the refusal bound, in any direction."""
    symbols = [draw(st.sampled_from(SYMBOLS)) for _ in range(2)]
    bound = 0.25 * sum(element(s).covalent_radius for s in symbols)
    direction = np.array([draw(finite), draw(finite), draw(finite)])
    norm = np.linalg.norm(direction)
    unit = direction / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
    d = draw(st.floats(0.0, 0.9 * bound))
    origin = [draw(finite), draw(finite), draw(finite)]
    return symbols, [origin, (np.array(origin) + d * unit).tolist()], 0


unknown_symbols = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3
).filter(lambda s: s not in ELEMENTS)


@st.composite
def unknown_symbol(draw):
    return [draw(st.sampled_from(SYMBOLS)), draw(unknown_symbols)], [
        [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]
    ], 0


@st.composite
def absurd_charge(draw):
    """A valid geometry with no electrons left, or more than its basis
    holds at two per function."""
    symbols = [draw(st.sampled_from(SYMBOLS)) for _ in range(2)]
    electrons = sum(element(s).z for s in symbols)
    capacity = 2 * sum(element(s).n_basis_light for s in symbols)
    charge = draw(st.one_of(
        st.integers(electrons, 10**6), st.integers(-(10**6), electrons - capacity - 1)
    ))
    return symbols, [[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]], charge


hostile = st.one_of(non_finite(), near_coincident(), unknown_symbol(), absurd_charge())


def _geometry_in(symbols, coords):
    return "".join(
        f"atom {x * BOHR_IN_ANGSTROM!r} {y * BOHR_IN_ANGSTROM!r} {z * BOHR_IN_ANGSTROM!r} {s}\n"
        for s, (x, y, z) in zip(symbols, coords)
    )


@FUZZ
@given(case=hostile)
def test_job_request_and_submit_job_refuse_before_the_journal(case, tmp_path_factory):
    symbols, coords, charge = case
    journal = tmp_path_factory.mktemp("store") / "journal.jsonl"
    store = StateStore(journal)
    with pytest.raises(ReproError):
        submit_job(store, JobRequest(Structure(symbols, coords), get_settings("minimal"),
                                     charge=charge))
    assert not store.tasks()
    assert not journal.exists() or not journal.read_text().strip()


@FUZZ
@given(case=hostile, command=st.sampled_from(["physics", "submit"]))
def test_the_cli_exits_2_with_nothing_journaled(case, command, tmp_path_factory, capsys):
    symbols, coords, charge = case
    root = tmp_path_factory.mktemp("cli")
    path = root / "geometry.in"
    path.write_text(_geometry_in(symbols, coords))
    journal = root / "store" / "journal.jsonl"
    extra = ["--store", str(journal)] if command == "submit" else []
    capsys.readouterr()
    code = main([command, str(path), "--level", "minimal", f"--charge={charge}", *extra])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("repro: error:") and "Traceback" not in err
    assert not journal.exists()
