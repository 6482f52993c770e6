"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence


class ReproError(Exception):
    """Base class of all :mod:`repro` exceptions."""


class SettingsError(ReproError):
    """A run-settings value outside its domain (e.g. a NaN threshold)."""


class GeometryError(ReproError):
    """Malformed structure input (unknown element, bad geometry file...)."""


class BasisError(ReproError):
    """Basis-set construction or evaluation failure."""


class GridError(ReproError):
    """Integration-grid construction failure (bad rule order, empty batch...)."""


class _ConvergenceError(ReproError):
    """A self-consistency loop that stopped short of its tolerance.

    ``history`` holds one dict per cycle run, in order: the cycle's
    ``residual``, and for the SCF its total ``energy`` (Ha).  Errors
    raised before the first cycle carry none.
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: int,
        residual: float,
        history: Sequence[Dict[str, float]] = (),
    ):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = list(history)

    def __reduce__(self):
        # Exception pickles as ``cls(*args)``, which drops the keyword-only fields.
        fields = dict(iterations=self.iterations, residual=self.residual)
        return partial(type(self), **fields), self.args, self.__dict__


class SCFConvergenceError(_ConvergenceError):
    """The ground-state SCF cycle failed to reach the requested tolerance."""


class CPSCFConvergenceError(_ConvergenceError):
    """The coupled-perturbed SCF (DFPT) cycle failed to converge."""


class MappingError(ReproError):
    """Task-mapping failure (more ranks than batches, empty partitions...)."""


class CommunicationError(ReproError):
    """Simulated-MPI misuse (mismatched buffers, unknown ranks...)."""


class FaultInjectionError(ReproError):
    """A worker-crash plan is malformed (a rate outside [0, 1], a negative claim)."""


class BackendError(ReproError):
    """Execution-backend misuse (unknown name, unbound/rebound backend...)."""


class DeviceError(ReproError):
    """Simulated OpenCL device misuse (buffer overflow, bad NDRange...)."""


class KernelFusionError(DeviceError):
    """A requested kernel fusion is illegal on the target device."""


class ExperimentError(ReproError):
    """An experiment/benchmark harness was configured inconsistently."""


class ServiceError(ReproError):
    """Simulation-service failure (statestore, job API or worker pool)."""


class TaskTransitionError(ServiceError):
    """An illegal task-lifecycle transition was requested (unknown task,
    wrong claiming worker, or a state the operation is not valid in)."""


class ArtifactError(ReproError):
    """An output artifact cannot be written safely (e.g. it already
    exists and overwriting was not explicitly requested)."""


class VerificationError(ReproError):
    """A physics invariant, golden snapshot or conformance check failed."""


class GoldenUpdateError(VerificationError):
    """A golden snapshot would be (re)written without explicit opt-in."""
