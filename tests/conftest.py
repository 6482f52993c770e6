"""Shared fixtures: expensive physics objects built once per session,
plus factories for the small machine/cluster instances the runtime
and communication suites all need (the factories themselves live
in :mod:`repro.testing.fixtures`, shared with the bench harness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule, water
from repro.config import get_settings
from repro.dft import SCFDriver
from repro.testing import fixtures as _factories


def pytest_addoption(parser):
    parser.addoption(
        "--run-golden-update",
        action="store_true",
        default=False,
        help="allow the golden-regeneration tests to rewrite snapshots "
        "(in a temp dir); without it those tests are skipped",
    )


@pytest.fixture
def golden_update_enabled(request):
    if not request.config.getoption("--run-golden-update"):
        pytest.skip("golden regeneration requires --run-golden-update")
    return True


@pytest.fixture(scope="session")
def minimal_settings():
    return get_settings("minimal")


@pytest.fixture(scope="session")
def h2_ground_state(minimal_settings):
    """Converged H2 ground state (minimal settings)."""
    return SCFDriver(hydrogen_molecule(), minimal_settings).run()


@pytest.fixture(scope="session")
def water_ground_state(minimal_settings):
    """Converged H2O ground state (minimal settings)."""
    return SCFDriver(water(), minimal_settings).run()


@pytest.fixture
def rng():
    return np.random.default_rng(20230712)


@pytest.fixture
def make_machine():
    """Factory fixture over :func:`repro.testing.fixtures.make_machine`."""
    return _factories.make_machine


@pytest.fixture
def make_cluster():
    """Factory fixture over :func:`repro.testing.fixtures.make_cluster`."""
    return _factories.make_cluster
