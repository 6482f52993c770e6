"""Shared utilities: timing, structured reports, small linear-algebra helpers."""

from repro.utils.timing import Stopwatch, PhaseTimer
from repro.utils.reports import TableFormatter, format_bytes, format_seconds
from repro.utils.linalg import (
    GeneralizedEigensolver,
    symmetrize,
    lowdin_orthogonalization,
    solve_generalized_eigenproblem,
)


def drain(gen):
    """Run a generator to exhaustion; return its ``return`` value.

    The eager form of every cycle generator in the pipeline
    (``SCFDriver.iter_cycles``, ``DFPTSolver.iter_directions``,
    ``iter_physics``): sequential execution *is* the generator path,
    advanced by one caller instead of a round-robin scheduler.
    """
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


__all__ = [
    "drain",
    "Stopwatch",
    "PhaseTimer",
    "TableFormatter",
    "format_bytes",
    "format_seconds",
    "symmetrize",
    "GeneralizedEigensolver",
    "lowdin_orthogonalization",
    "solve_generalized_eigenproblem",
]
