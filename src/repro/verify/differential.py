"""Differential-conformance harness (DESIGN §9.2).

Runs one workload across the full configuration matrix —
{execution backend} x {mapping strategy} x {comm scheme} — and
classifies every configuration's agreement with the reference:

* **bit-exact** — not one differing bit (the backends' shared
  batch-ordered math, flat reductions in rank order);
* **allclose** — floating-point summation-order noise only (different
  mapping partitions, hierarchical node-local reductions);
* **physics** — within grid-quadrature / convergence tolerance;
* **DIVERGENT** — beyond every class: a real conformance bug.

Two instruments:

1. :func:`backend_conformance` captures an ordered *phase trace* of the
   full SCF + CPSCF pipeline per backend (the same phase boundaries the
   :class:`~repro.backends.base.BackendProfile` counts) and compares
   traces pairwise.  On divergence, :func:`first_divergent_phase`
   bisects to the earliest phase whose artifacts disagree — a wrong
   polarizability is attributed to, say, ``scf/density`` rather than
   just "the end differs".
2. :func:`screening_conformance` runs the same phase-trace instrument
   along the block-sparse *screening* axis: a dense reference trace
   (threshold ``0.0``) against screened traces at requested thresholds.
   Threshold ``0.0`` must classify bit-exact (disabled screening is the
   dense code path); positive thresholds must stay within tolerance.
3. :func:`combo_conformance` composes all three axes on one physical
   quantity: per-rank partial overlap matrices built through a given
   *backend*'s basis blocks, partitioned by a given *mapping* strategy,
   synthesized by a given *comm scheme* on a fault-free simulated
   cluster, compared against the serially integrated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atoms.structure import Structure
from repro.config import RunSettings, get_settings
from repro.errors import VerificationError

#: Classification thresholds on the max absolute difference, tried in
#: order.  ``bit-exact`` means exactly zero.
CLASS_THRESHOLDS: Tuple[Tuple[str, float], ...] = (
    ("bit-exact", 0.0),
    ("allclose", 1e-9),
    ("physics", 1e-4),
)

DIVERGENT = "DIVERGENT"

#: Mapping strategies under test (names -> factory resolved lazily).
MAPPING_STRATEGIES = ("load_balancing", "locality")

#: Comm schemes under test.
COMM_SCHEMES = ("baseline", "packed", "packed_hierarchical")


def classify(max_abs_diff: float) -> str:
    """Tolerance class of a difference (or ``DIVERGENT``)."""
    if not np.isfinite(max_abs_diff):
        return DIVERGENT
    for name, threshold in CLASS_THRESHOLDS:
        if max_abs_diff <= threshold:
            return name
    return DIVERGENT


@dataclass
class PairResult:
    """Agreement between two configurations (or one vs the reference)."""

    axis: str  # "backend" | "backend x mapping x comm"
    a: str
    b: str
    max_abs_diff: float
    classification: str
    first_divergent_phase: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.classification != DIVERGENT


@dataclass
class ConformanceReport:
    """Everything one conformance run asserted, renderable as a table."""

    molecule: str
    level: str
    pairs: List[PairResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def failures(self) -> List[PairResult]:
        return [p for p in self.pairs if not p.ok]

    def render(self) -> str:
        from repro.utils.reports import TableFormatter

        table = TableFormatter(
            ["axis", "a", "b", "max |diff|", "class", "first divergent phase"],
            title=f"conformance matrix [{self.molecule}, level={self.level}]",
        )
        for p in self.pairs:
            table.add_row(
                [
                    p.axis,
                    p.a,
                    p.b,
                    f"{p.max_abs_diff:.3e}",
                    p.classification,
                    p.first_divergent_phase or "-",
                ]
            )
        verdict = (
            "all configurations conform"
            if self.ok
            else f"{len(self.failures)} DIVERGENT configuration(s)"
        )
        return table.render() + f"\n{verdict}"


# ----------------------------------------------------------------------
# Phase traces (backend axis)
# ----------------------------------------------------------------------
def capture_physics_trace(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    backend=None,
) -> "Dict[str, np.ndarray]":
    """Ordered phase -> artifact map of one full SCF + CPSCF run.

    Keys follow the drivers' phase boundaries in execution order
    (``integrals/*``, ``scf/*``, ``cpscf{j}/*``, ``polarizability``), so
    comparing two traces in key order *is* a bisection over phases.
    """
    from repro.core.simulator import PerturbationSimulator

    settings = settings or get_settings("minimal")
    result = PerturbationSimulator(
        structure, settings, backend=backend
    ).run_physics()
    gs = result.ground_state
    trace: Dict[str, np.ndarray] = {
        "integrals/overlap": gs.overlap,
        "integrals/kinetic": gs.kinetic,
        "integrals/dipoles": gs.dipoles,
        "scf/density_matrix": gs.density_matrix,
        "scf/density": gs.density,
        "scf/eigenvalues": gs.eigenvalues,
        "scf/total_energy": np.array(gs.total_energy),
    }
    for j, response in enumerate(result.responses):
        trace[f"cpscf{j}/response_density_matrix"] = response.response_density_matrix
        trace[f"cpscf{j}/response_density"] = response.response_density
    trace["polarizability"] = result.polarizability
    return trace


def first_divergent_phase(
    trace_a: "Dict[str, np.ndarray]",
    trace_b: "Dict[str, np.ndarray]",
    threshold: float = CLASS_THRESHOLDS[-1][1],
) -> Optional[Tuple[str, float]]:
    """Earliest phase whose artifacts differ beyond *threshold*.

    Returns ``(phase, max_abs_diff)`` or ``None`` if every phase is
    within the threshold.  Traces must share their key sequence (they do
    when captured by :func:`capture_physics_trace` on one workload).
    """
    if list(trace_a) != list(trace_b):
        raise VerificationError(
            "phase traces do not cover the same phases; "
            f"{sorted(set(trace_a) ^ set(trace_b))} differ"
        )
    for name in trace_a:
        a, b = trace_a[name], trace_b[name]
        if a.shape != b.shape:
            return name, float("inf")
        diff = float(np.abs(a - b).max()) if a.size else 0.0
        if diff > threshold:
            return name, diff
    return None


def backend_conformance(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[PairResult]:
    """Pairwise end-to-end agreement of the execution backends."""
    from repro.backends import available_backends

    settings = settings or get_settings("minimal")
    names = list(backends) if backends is not None else list(available_backends())
    traces = {
        name: capture_physics_trace(structure, settings, backend=name)
        for name in names
    }
    pairs: List[PairResult] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = max(
                float(np.abs(traces[a][k] - traces[b][k]).max())
                for k in traces[a]
            )
            cls = classify(diff)
            divergence = None
            if cls == DIVERGENT:
                hit = first_divergent_phase(traces[a], traces[b])
                divergence = hit[0] if hit else None
            pairs.append(
                PairResult(
                    axis="backend",
                    a=a,
                    b=b,
                    max_abs_diff=diff,
                    classification=cls,
                    first_divergent_phase=divergence,
                )
            )
    return pairs


# ----------------------------------------------------------------------
# The screening axis (dense vs block-sparse traces)
# ----------------------------------------------------------------------
def screening_conformance(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    thresholds: Optional[Sequence[float]] = None,
    backend: Optional[str] = None,
) -> List[PairResult]:
    """Dense-vs-screened phase traces, one row per threshold.

    The dense reference trace runs with ``screening_threshold = 0.0``
    (no mask: every function of each batch's relevant atoms).  Each requested
    threshold reruns the full pipeline with screening enabled and
    classifies its agreement with the dense trace:

    * threshold ``0.0`` must classify **bit-exact** — disabled
      screening *is* the dense code path, so any difference is a
      determinism bug, not a screening bug;
    * positive thresholds land in ``allclose``/``physics`` (dropped
      sub-threshold tails plus BLAS summation-grouping noise on the
      compact blocks);
    * ``DIVERGENT`` rows are bisected to the first broken phase, so an
      overscreening mask is attributed to e.g. ``scf/density`` rather
      than "the polarizability differs".
    """
    from dataclasses import replace

    from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

    settings = settings or get_settings("minimal")
    if thresholds is None:
        thresholds = (0.0, DEFAULT_SCREENING_THRESHOLD)
    dense = capture_physics_trace(
        structure, replace(settings, screening_threshold=0.0), backend=backend
    )
    pairs: List[PairResult] = []
    for t in thresholds:
        t = float(t)
        trace = capture_physics_trace(
            structure, replace(settings, screening_threshold=t), backend=backend
        )
        diff = max(float(np.abs(dense[k] - trace[k]).max()) for k in dense)
        cls = classify(diff)
        divergence = None
        if cls == DIVERGENT:
            hit = first_divergent_phase(dense, trace)
            divergence = hit[0] if hit else None
        pairs.append(
            PairResult(
                axis="screening",
                a="dense",
                b=f"screened @ {t:g}",
                max_abs_diff=diff,
                classification=cls,
                first_divergent_phase=divergence,
            )
        )
    return pairs


# ----------------------------------------------------------------------
# The backend x mapping x comm matrix
# ----------------------------------------------------------------------
def _mapping_fn(name: str):
    from repro.mapping.strategies import (
        load_balancing_mapping,
        locality_enhancing_mapping,
    )

    table = {
        "load_balancing": load_balancing_mapping,
        "locality": locality_enhancing_mapping,
    }
    try:
        return table[name]
    except KeyError:
        raise VerificationError(
            f"unknown mapping strategy {name!r}; expected {sorted(table)}"
        ) from None


def _comm_scheme(name: str):
    from repro.comm.schemes import (
        BaselineRowwiseAllreduce,
        PackedAllreduce,
        PackedHierarchicalAllreduce,
    )

    table = {
        "baseline": BaselineRowwiseAllreduce,
        "packed": PackedAllreduce,
        "packed_hierarchical": PackedHierarchicalAllreduce,
    }
    try:
        return table[name]()
    except KeyError:
        raise VerificationError(
            f"unknown comm scheme {name!r}; expected {sorted(table)}"
        ) from None


def _validate_partition(assignment, n_batches: int) -> None:
    """Every batch on exactly one rank — a mapping correctness gate."""
    seen = sorted(
        b for owned in assignment.batches_of_rank for b in owned
    )
    if seen != list(range(n_batches)):
        raise VerificationError(
            f"mapping {assignment.strategy!r} is not a partition: "
            f"{len(seen)} assignments for {n_batches} batches"
        )


def combo_conformance(
    structure: Structure,
    settings: Optional[RunSettings] = None,
    backends: Optional[Sequence[str]] = None,
    mappings: Sequence[str] = MAPPING_STRATEGIES,
    comms: Sequence[str] = COMM_SCHEMES,
    n_ranks: int = 4,
) -> List[PairResult]:
    """One row per (backend, mapping, comm) configuration.

    The probe quantity is the overlap matrix: each rank integrates the
    partial S over the batches its mapping assigned to it (basis blocks
    served by the backend under test), the comm scheme synthesizes the
    per-rank partials on a fault-free cluster, and the result is
    compared to the serially batch-ordered reference integration.
    """
    from repro.backends import available_backends, weighted_gram
    from repro.dft.hamiltonian import MatrixBuilder, build_substrate
    from repro.grids.sparsity import build_batch_views
    from repro.testing.fixtures import make_cluster
    from repro.utils.scratch import scratch

    settings = settings or get_settings("minimal")
    backend_names = (
        list(backends) if backends is not None else list(available_backends())
    )
    sub = build_substrate(structure, settings.grids)
    basis, grid = sub.basis, sub.grid
    weights = grid.weights

    pairs: List[PairResult] = []
    reference: Optional[np.ndarray] = None
    for backend_name in backend_names:
        builder = MatrixBuilder(
            basis, grid, batches=sub.batches, backend=backend_name
        )
        if reference is None:
            reference = builder.reference_potential_matrix(
                np.ones(grid.n_points)
            )
        n_batches = len(builder.batches)
        if n_batches < n_ranks:
            raise VerificationError(
                f"{n_batches} batches cannot feed {n_ranks} ranks; "
                "lower n_ranks for this workload"
            )
        for mapping_name in mappings:
            assignment = _mapping_fn(mapping_name)(builder.batches, n_ranks)
            _validate_partition(assignment, n_batches)
            per_rank = []
            for owned in assignment.batches_of_rank:
                partial = np.zeros((basis.n_basis, basis.n_basis))
                # A rank fuses the batches it owns, as a rank's engine would.
                for view in build_batch_views(
                    [builder.batches[b] for b in owned], basis
                ):
                    phi = builder.backend.basis_block(view)
                    with scratch(phi.shape) as work:
                        gram = weighted_gram(phi, weights[view.point_indices], work)
                    view.scatter_add(partial, gram)
                per_rank.append(partial)
            for comm_name in comms:
                cluster = make_cluster(n_ranks)
                reduced = _comm_scheme(comm_name).reduce(cluster, per_rank)
                diff = float(np.abs(reduced - reference).max())
                pairs.append(
                    PairResult(
                        axis="backend x mapping x comm",
                        a=f"{backend_name} x {mapping_name} x {comm_name}",
                        b="serial reference",
                        max_abs_diff=diff,
                        classification=classify(diff),
                    )
                )
    return pairs


def run_conformance(
    structure: Structure,
    level: str = "minimal",
    backends: Optional[Sequence[str]] = None,
    mappings: Sequence[str] = MAPPING_STRATEGIES,
    comms: Sequence[str] = COMM_SCHEMES,
    n_ranks: int = 4,
    name: Optional[str] = None,
    screenings: Optional[Sequence[float]] = None,
) -> ConformanceReport:
    """The full conformance matrix for one workload.

    ``screenings`` selects the thresholds for the screening axis
    (default: ``0.0`` plus the default screening threshold); pass an
    empty sequence to skip the axis.
    """
    settings = get_settings(level)
    report = ConformanceReport(molecule=name or structure.name, level=level)
    report.pairs.extend(backend_conformance(structure, settings, backends))
    if screenings is None or len(screenings) > 0:
        report.pairs.extend(
            screening_conformance(structure, settings, thresholds=screenings)
        )
    report.pairs.extend(
        combo_conformance(
            structure, settings, backends, mappings, comms, n_ranks
        )
    )
    return report
