"""Pluggable execution backends for the SCF/CPSCF hot phases.

One seam (:class:`ExecutionBackend`), one host engine, two names:

* ``numpy`` — the host engine: per-view basis blocks kept under a byte
  budget, nothing recomputed that the budget holds;
* ``device`` — the same engine plus a price list: each phase it has run
  is charged as a launch, and its transfers as bytes, on the
  :mod:`repro.ocl` accelerator model.

Select one end-to-end with ``SCFDriver(..., backend="device")`` /
``DFPTSolver(..., backend=...)`` / ``repro physics ... --backend device``.
"""

from repro.backends.base import (
    BackendProfile,
    ExecutionBackend,
    Factored,
    PhaseStats,
    first_order_dm_dense,
    quadratic_form_rows,
    weighted_gram,
)
from repro.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    create_backend,
    register_backend,
    resolve_backend,
)

# Importing the implementation modules registers the built-in backends.
from repro.backends.batched import BatchedBackend, DEFAULT_CACHE_BYTES
from repro.backends.device import DeviceBackend

__all__ = [
    "BackendProfile",
    "BatchedBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_BYTES",
    "DeviceBackend",
    "ExecutionBackend",
    "Factored",
    "PhaseStats",
    "available_backends",
    "create_backend",
    "first_order_dm_dense",
    "quadratic_form_rows",
    "register_backend",
    "resolve_backend",
    "weighted_gram",
]
