"""repro.service — simulation-as-a-service (DESIGN §12).

Three pieces turn the CLI-only pipeline into a long-running job
service:

* **statestore** (:mod:`repro.service.statestore`) — a persistent
  (JSON-journal) task store with submit/claim/heartbeat/complete/fail
  transitions, priority-then-FIFO claiming, lease expiry for crashed
  workers, bounded retry with exponential backoff and idempotent
  content-addressed resubmission;
* **jobs** (:mod:`repro.service.jobs`) — the ``JobRequest(molecule,
  RunSettings)`` client API with Provenance-derived cache keys
  (commit, seed, settings hash), per-client quotas and batch
  submission;
* **workers** (:mod:`repro.service.worker`) — a deterministic worker
  pool that pulls claimed tasks, runs the SCF/DFPT drivers through the
  execution-backend seam under ``repro.obs`` service spans, and
  streams provenance-stable result payloads back into the store;
  :mod:`repro.service.faults` injects seeded worker crashes into it.

The CLI front end is ``repro submit | serve | status``; the contract
is pinned by ``tests/test_service_statestore.py`` (alchemiscale-style
statestore suite), ``tests/test_service_keys.py`` (hypothesis cache-key
properties) and ``tests/test_service_chaos.py`` (crash/retry
convergence), gated by ``make service-check``.

>>> from repro.service import StateStore, JobRequest, submit_job
>>> from repro.config import get_settings
>>> store = StateStore()
>>> out = submit_job(store, JobRequest("h2", get_settings("minimal")),
...                  commit="abc1234", now=0.0)
>>> out.task.status
'waiting'
"""

from repro.service.jobs import (
    JobRequest,
    cache_key,
    canonical_settings,
    physics_from_payload,
    settings_fingerprint,
    structure_fingerprint,
    structure_from_dict,
    structure_to_dict,
    submit_batch,
    submit_job,
)
from repro.service.statestore import (
    ALL_STATUSES,
    CANCELLED,
    CLAIMED,
    COMPLETE,
    ERRORED,
    LIVE_STATUSES,
    RUNNING,
    TERMINAL_STATUSES,
    WAITING,
    StateStore,
    SubmitOutcome,
    TaskRecord,
)
from repro.service.worker import (
    PoolReport,
    Worker,
    WorkerPool,
    WorkerStats,
    result_payload,
    run_physics_task,
    stable_result_bytes,
)

__all__ = [
    "ALL_STATUSES",
    "CANCELLED",
    "CLAIMED",
    "COMPLETE",
    "ERRORED",
    "JobRequest",
    "LIVE_STATUSES",
    "PoolReport",
    "RUNNING",
    "StateStore",
    "SubmitOutcome",
    "TERMINAL_STATUSES",
    "TaskRecord",
    "WAITING",
    "Worker",
    "WorkerPool",
    "WorkerStats",
    "cache_key",
    "canonical_settings",
    "physics_from_payload",
    "result_payload",
    "run_physics_task",
    "settings_fingerprint",
    "stable_result_bytes",
    "structure_fingerprint",
    "structure_from_dict",
    "structure_to_dict",
    "submit_batch",
    "submit_job",
]
