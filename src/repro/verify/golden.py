"""Golden snapshot store (DESIGN §9.3).

Tolerance-aware ``.npz`` records of the reference molecules' energies,
matrices and polarizabilities, committed under
``src/repro/verify/golden_data/``.  A regression against a golden names
the exact field that broke, with its residual and tolerance class —
rendered through the same :class:`~repro.verify.invariants.VerifyReport`
machinery as the invariant registry.

Updates are guarded: :func:`save_golden` refuses to write unless called
with ``allow_update=True``, and the pytest suite only exercises the
update path under the explicit ``--run-golden-update`` flag, so CI can
never silently re-baseline itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.atoms.builders import BUILTIN_MOLECULES
from repro.atoms.structure import Structure
from repro.config import get_settings
from repro.errors import GoldenUpdateError, VerificationError
from repro.verify.invariants import ALLCLOSE, PHYSICS, InvariantResult, VerifyReport

#: Where committed goldens live (package data, versioned with the code).
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_data"

#: The reference molecules ``python -m repro verify`` covers.
GOLDEN_MOLECULES: Dict[str, Callable[[], Structure]] = BUILTIN_MOLECULES

#: Per-field tolerance classes.  Matrices and energies are converged to
#: tight SCF tolerances and reproducible across BLAS builds to well
#: below these; the polarizability inherits the looser CPSCF iteration
#: tolerance, so it carries a physics-class bound.
FIELD_TOLERANCES: Dict[str, Tuple[str, float]] = {
    "total_energy": (ALLCLOSE, 1e-7),
    "energy_components": (ALLCLOSE, 1e-7),
    "eigenvalues": (ALLCLOSE, 1e-6),
    "overlap": (ALLCLOSE, 1e-9),
    "kinetic": (ALLCLOSE, 1e-9),
    "density_matrix": (ALLCLOSE, 1e-5),
    "charge": (ALLCLOSE, 1e-8),
    "polarizability": (PHYSICS, 1e-4),
}

#: Keys stored in every golden beyond the compared fields.
_META_KEYS = ("level", "molecule")


def golden_path(name: str, directory: Optional[Path] = None) -> Path:
    """Filesystem location of one golden record."""
    return Path(directory or GOLDEN_DIR) / f"{name}.npz"


def record_from_run(gs, polarizability: np.ndarray, n_electrons: int) -> Dict[str, np.ndarray]:
    """Build a golden record from an already-converged run.

    ``gs`` is a :class:`~repro.dft.scf.GroundState`; orbitals are
    deliberately excluded (eigenvector signs are not reproducible), the
    density matrix carries the same information sign-free.
    """
    components = sorted(gs.energy_components)
    return {
        "total_energy": np.array(gs.total_energy),
        "energy_component_names": np.array(components),
        "energy_components": np.array(
            [gs.energy_components[k] for k in components]
        ),
        "eigenvalues": np.asarray(gs.eigenvalues),
        "overlap": np.asarray(gs.overlap),
        "kinetic": np.asarray(gs.kinetic),
        "density_matrix": np.asarray(gs.density_matrix),
        "charge": np.array(float(np.sum(gs.grid.weights * gs.density))),
        "polarizability": np.asarray(polarizability),
        "n_electrons": np.array(n_electrons),
    }


def compute_golden_record(
    structure: Structure, level: str = "minimal"
) -> Dict[str, np.ndarray]:
    """Run the reference pipeline and snapshot it."""
    from repro.core.simulator import PerturbationSimulator

    result = PerturbationSimulator(structure, get_settings(level)).run_physics()
    return record_from_run(
        result.ground_state, result.polarizability, structure.n_electrons
    )


def save_golden(
    name: str,
    record: Dict[str, np.ndarray],
    level: str = "minimal",
    directory: Optional[Path] = None,
    allow_update: bool = False,
) -> Path:
    """Write one golden record — only with explicit opt-in.

    Raises :class:`~repro.errors.GoldenUpdateError` unless
    ``allow_update=True`` (the CLI's ``--update-golden``, pytest's
    ``--run-golden-update``), whether or not the file already exists.
    """
    path = golden_path(name, directory)
    if not allow_update:
        raise GoldenUpdateError(
            f"refusing to write golden {path}; goldens are only regenerated "
            "with an explicit opt-in (`repro verify --update-golden` or "
            "`pytest --run-golden-update`)"
        )
    missing = sorted(set(FIELD_TOLERANCES) - set(record))
    if missing:
        raise VerificationError(f"golden record for {name!r} lacks fields {missing}")
    path.parent.mkdir(parents=True, exist_ok=True)
    # A loaded golden carries the meta keys too — strip them so a
    # load -> save round trip does not collide with the explicit ones.
    payload = {k: v for k, v in record.items() if k not in _META_KEYS}
    np.savez(path, level=np.array(level), molecule=np.array(name), **payload)
    return path


def load_golden(name: str, directory: Optional[Path] = None) -> Dict[str, np.ndarray]:
    """Read one golden record back as a plain dict."""
    path = golden_path(name, directory)
    if not path.exists():
        raise VerificationError(
            f"no golden record {path}; generate one with "
            "`python -m repro verify --update-golden`"
        )
    with np.load(path, allow_pickle=False) as data:
        return {key: np.array(data[key]) for key in data.files}


def compare_to_golden(
    name: str,
    record: Dict[str, np.ndarray],
    directory: Optional[Path] = None,
) -> VerifyReport:
    """Field-by-field comparison of *record* against the stored golden."""
    golden = load_golden(name, directory)
    report = VerifyReport(level="golden")
    for fname, (tol_class, tolerance) in FIELD_TOLERANCES.items():
        detail = ""
        a = np.asarray(record.get(fname))
        b = np.asarray(golden.get(fname))
        if a is None or b is None or a.dtype == object or b.dtype == object:
            residual = float("inf")
            detail = "field missing from record or golden"
        elif a.shape != b.shape:
            residual = float("inf")
            detail = f"shape {a.shape} vs golden {b.shape}"
        else:
            residual = float(np.abs(a - b).max()) if a.size else 0.0
        report.add(
            InvariantResult(
                name=f"golden:{name}/{fname}",
                phase="golden",
                tol_class=tol_class,
                residual=residual,
                tolerance=tolerance,
                passed=residual <= tolerance,
                detail=detail,
            )
        )
    return report
