"""Shared utilities: timing, structured reports, small linear-algebra helpers."""

from repro.utils.timing import PhaseTimer
from repro.utils.reports import TableFormatter, format_bytes, format_seconds
from repro.utils.linalg import (
    GeneralizedEigensolver,
    symmetrize,
    lowdin_orthogonalization,
    solve_generalized_eigenproblem,
)


def drain(gen):
    """Run a generator to exhaustion; return its ``return`` value.

    The eager form of the pipeline's cycle generators
    (``SCFDriver.iter_cycles``, ``DFPTSolver.iter_directions``), which
    ``benchmarks/e2e`` advances one timed cycle at a time.
    """
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


__all__ = [
    "drain",
    "PhaseTimer",
    "TableFormatter",
    "format_bytes",
    "format_seconds",
    "symmetrize",
    "GeneralizedEigensolver",
    "lowdin_orthogonalization",
    "solve_generalized_eigenproblem",
]
