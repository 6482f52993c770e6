"""The execution engine for the SCF/CPSCF hot phases, and its price.

One seam (:class:`ExecutionBackend`), one engine behind it
(:class:`BatchedBackend`, named ``"numpy"``); drivers take
``backend=None``, ``"numpy"`` or an instance.  What a run would cost on
an accelerator is a bill on its profile, :func:`device_bill`.
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
from repro.backends.batched import BatchedBackend, DEFAULT_CACHE_BYTES, resolve_backend
from repro.backends.device import DeviceBill, device_bill

__all__ = [
    "BackendProfile",
    "BatchedBackend",
    "DEFAULT_CACHE_BYTES",
    "DeviceBill",
    "ExecutionBackend",
    "Factored",
    "PhaseStats",
    "device_bill",
    "first_order_dm_dense",
    "quadratic_form_rows",
    "resolve_backend",
    "weighted_gram",
]
