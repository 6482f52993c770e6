"""Physics-invariant verification and differential conformance.

The repo's correctness story in one place (DESIGN §9):

* :mod:`repro.verify.invariants` — a registry of named, tolerance-tagged
  physics checks (Hermiticity, idempotency, charge conservation, Gauss
  law, CPSCF stationarity...) that the SCF/CPSCF drivers run at phase
  boundaries when ``RunSettings.verify`` is ``"cheap"`` or ``"full"``.
* :mod:`repro.verify.differential` — the conformance harness: one
  workload across the {backend} x {mapping} x {comm-scheme} matrix plus
  the block-sparse {screening} axis (dense vs screened traces), every
  configuration classified as bit-exact / tolerance-class / divergent,
  with divergences bisected to the first differing phase.
* :mod:`repro.verify.golden` — tolerance-aware ``.npz`` golden
  snapshots of H2/H2O energies, matrices and polarizabilities, guarded
  against silent regeneration.
* :mod:`repro.verify.mutations` — deliberately seeded bugs proving the
  invariants have teeth (used by the mutation smoke tests).

CLI: ``python -m repro verify`` (and ``make verify``).
"""

from repro.verify.differential import (
    ConformanceReport,
    PairResult,
    capture_physics_trace,
    classify,
    first_divergent_phase,
    run_conformance,
    screening_conformance,
)
from repro.verify.golden import (
    GOLDEN_MOLECULES,
    compare_to_golden,
    compute_golden_record,
    golden_path,
    load_golden,
    record_from_run,
    save_golden,
)
from repro.verify.invariants import (
    InvariantResult,
    Verifier,
    VerifyReport,
    all_invariants,
    invariants_for,
)
from repro.verify.mutations import (
    MUTATIONS,
    MutantBackend,
    drop_radial_derivative,
    drop_relevant_atom,
    flip_xc_kernel_sign,
    shift_hartree_interval,
)

__all__ = [
    "ConformanceReport",
    "GOLDEN_MOLECULES",
    "InvariantResult",
    "MUTATIONS",
    "MutantBackend",
    "PairResult",
    "Verifier",
    "VerifyReport",
    "all_invariants",
    "capture_physics_trace",
    "classify",
    "compare_to_golden",
    "compute_golden_record",
    "drop_radial_derivative",
    "drop_relevant_atom",
    "first_divergent_phase",
    "flip_xc_kernel_sign",
    "golden_path",
    "invariants_for",
    "load_golden",
    "record_from_run",
    "run_conformance",
    "save_golden",
    "screening_conformance",
    "shift_hartree_interval",
]
