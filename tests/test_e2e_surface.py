"""The ``src/repro`` names ``benchmarks/e2e`` reaches at run time.

The wall-clock harness is off-limits to ordinary PRs (``BENCHMARK.json``
lists it under ``paths``) and tier-1 does not collect its own test file,
so a refactor that drops a name it imports, preloads or wraps would only
surface as a failed benchmark operation.  This test reads the harness
with ``ast`` — nothing under ``benchmarks/e2e`` is executed — and fails
by name instead (DESIGN §8 lists the pinned names).
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.atoms import hydrogen_molecule
from repro.backends import (
    BackendProfile,
    BatchedBackend,
    ExecutionBackend,
    create_backend,
)
from repro.basis.basis_set import BasisSet, build_basis
from repro.config import get_settings
from repro.core import PerturbationSimulator
from repro.dft.hamiltonian import MatrixBuilder
from repro.dft.hartree import MultipoleSolver
from repro.dft.scf import SCFDriver
from repro.grids.atom_grid import build_grid
from repro.grids.partition import becke_weights
from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD
from repro.utils.timing import PhaseTimer

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

#: ``rec.wrap(<expr>, "<method>", ...)``: the class each wrapped
#: expression is an instance of.  A new expression must be added here.
WRAPPED = {
    "driver.backend": ExecutionBackend,
    "builder.backend": ExecutionBackend,
    "driver.solver": MultipoleSolver,
    "simulator": PerturbationSimulator,
}

#: Attributes the workloads read off ``src`` objects without importing
#: or wrapping them (ISSUE 16's fixed points).
ATTRIBUTES = (
    (MatrixBuilder, ("basis_values", "overlap", "kinetic", "nuclear_attraction",
                     "dipole_matrices")),
    (PhaseTimer, ("visits", "total", "phase")),
    (BackendProfile, ("cache_hits", "cache_misses", "screen_blocks_evaluated",
                      "phases")),
)


#: The *shapes* of the set-up calls the workloads make (ISSUE 17's fixed
#: points): ``(callable, positional count, keywords)``.  ``self`` counts
#: as a positional for the two methods.
CALL_SHAPES = (
    (build_basis, 1, ()),
    (build_grid, 2, ("with_partition",)),
    (SCFDriver, 2, ("timer", "basis", "grid")),
    (MatrixBuilder, 2, ("batches", "backend", "screening_threshold")),
    (BasisSet.evaluate, 2, ("atoms",)),
    (BasisSet.evaluate_with_gradients, 2, ("atoms",)),
    (becke_weights, 3, ("smoothing",)),
)


def _trees():
    for name in ("workloads.py", "child.py"):
        path = E2E / name
        yield name, ast.parse(path.read_text(), filename=str(path))


def _imports():
    """(file, module, name-or-None) for every reference to ``repro``."""
    found = []
    for fname, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found += [(fname, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (fname, alias.name, None) for alias in node.names
                    if alias.name.startswith("repro")
                ]
            elif (  # child.py's preload tuple of dotted module names
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("repro.")
                and node.value.replace(".", "").isidentifier()
            ):
                found.append((fname, node.value, None))
    return sorted(set(found), key=lambda t: (t[0], t[1], t[2] or ""))


def _wraps():
    """(file, expression, method) for every ``rec.wrap(obj, "m", ...)``."""
    found = []
    for fname, tree in _trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                found.append((fname, ast.unparse(node.args[0]), node.args[1].value))
    return found


def test_the_harness_was_found():
    assert len(_imports()) > 40 and len(_wraps()) >= 6


@pytest.mark.parametrize(
    "fname,module,name", _imports(),
    ids=lambda v: "-" if v is None else str(v),
)
def test_every_repro_import_resolves(fname, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{fname}: from {module} import {name}"


@pytest.mark.parametrize("fname,expr,method", _wraps())
def test_every_wrapped_method_exists(fname, expr, method):
    assert expr in WRAPPED, f"{fname}: map {expr!r} to its class in WRAPPED"
    assert callable(getattr(WRAPPED[expr], method, None)), (
        f"{fname}: rec.wrap({expr}, {method!r}) — "
        f"{WRAPPED[expr].__name__} has no such method"
    )


def test_pinned_attributes_and_constructor_arguments():
    for cls, names in ATTRIBUTES:
        probe = cls(backend="x") if cls is BackendProfile else cls
        for name in names:
            assert hasattr(probe, name), f"{cls.__name__}.{name}"
    # chain32_kernels builds its stream engine with a byte budget.
    assert BatchedBackend(max_cache_bytes=1024).cache.max_bytes == 1024
    # ...and its dense/screened builders by the registry name "numpy".
    assert isinstance(create_backend("numpy"), ExecutionBackend)


def test_what_the_workloads_read_off_live_objects():
    """ISSUE 18's fixed points: the fused engine keeps every value the
    harness reads where it reads it, with the meaning it had."""
    structure = hydrogen_molecule()
    settings = get_settings("minimal")
    basis = build_basis(structure)
    grid = build_grid(structure, settings.grids, with_partition=True)
    dense = MatrixBuilder(basis, grid, backend="numpy")
    screened = MatrixBuilder(
        basis, grid, batches=dense.batches, backend="numpy",
        screening_threshold=DEFAULT_SCREENING_THRESHOLD,
    )
    assert isinstance(dense.batches, list) and dense.pattern is None
    assert dense.basis_values().shape == (grid.n_points, basis.n_basis)
    stats = screened.pattern.stats
    assert 0.0 < stats.fill_fraction <= 1.0 <= stats.block_reduction
    for builder in (dense, screened):
        backend = builder.backend
        backend.density_on_grid(np.eye(basis.n_basis))
        backend.potential_matrix(np.ones(grid.n_points))
        profile = backend.profile
        lookups = profile.cache_hits + profile.cache_misses
        assert lookups == 2 * len(builder.views) and profile.cache_misses > 0
        assert {"Sumup", "H", "basis"} <= set(profile.phases)
        assert profile.phases["Sumup"].elements == builder.views.elements
    assert dense.backend.profile.phases["H"].elements == grid.n_points * basis.n_basis
    assert dense.backend.profile.screen_blocks_evaluated == 0
    assert screened.backend.profile.screen_blocks_evaluated == 2 * stats.blocks_active


@pytest.mark.parametrize(
    "fn,n_positional,keywords", CALL_SHAPES,
    ids=[shape[0].__qualname__ for shape in CALL_SHAPES],
)
def test_setup_call_shapes_bind(fn, n_positional, keywords):
    """A renamed or dropped parameter fails here, by name."""
    inspect.signature(fn).bind(*[None] * n_positional, **dict.fromkeys(keywords))


def test_becke_weights_takes_no_partner_list():
    # Deleted in PR 17 (it returned another atom's weights when the owner
    # was not listed first); the owner is entry 0 by construction.
    assert "partners" not in inspect.signature(becke_weights).parameters
