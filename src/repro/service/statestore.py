"""Persistent task statestore: the service's correctness contract.

The store owns the task lifecycle of the simulation service
(DESIGN §12.2)::

    submit ──> waiting ──claim──> claimed ──start──> running ──complete──> complete
                  ^                  │                  │
                  │                  └──fail/lease──────┘
                  └── (retry with exponential backoff; budget exhausted
                       => terminal ``errored``)

Design points, modeled on alchemiscale's Neo4j statestore contract
(``test_statestore.py``):

* **Claiming** hands each waiting task to exactly one worker: highest
  ``priority`` first, FIFO (submit order) within a priority band.  A
  claimed task is invisible to further claims — double-claiming is
  structurally impossible.
* **Leases** bound worker silence.  Claims carry a lease deadline that
  :meth:`StateStore.heartbeat` extends; :meth:`StateStore.expire_leases`
  requeues (or terminally errors) tasks whose worker went quiet — the
  crash-recovery path the chaos suite exercises.
* **Bounded retry with backoff**: each claim consumes one attempt; a
  failed/expired task becomes eligible again only after an
  exponentially growing delay (:data:`BACKOFF_BASE` seconds, times
  :data:`BACKOFF_FACTOR` per attempt), and exhausting ``max_retries``
  parks it in the terminal ``errored`` state.
* **Idempotent resubmission**: tasks are content-addressed by a cache
  ``key`` (see :func:`repro.service.jobs.cache_key`).  Resubmitting a
  completed key is a **cache hit** (the stored result is returned, no
  new task); resubmitting a live key deduplicates onto the existing
  task; resubmitting an errored key revives it with a fresh retry
  budget.
* **Persistence** is an append-only JSON journal: every transition is
  one line carrying its explicit timestamp, so replaying the journal
  rebuilds the exact store state (same statuses, results, heartbeats) with
  no wall-clock dependence.  The journal path honours the repo-wide
  artifact overwrite guard
  (:func:`repro.utils.artifacts.prepare_artifact_path`).

>>> store = StateStore()                    # in-memory (no journal)
>>> out = store.submit({"job": "h2"}, key="ck-1", now=0.0)
>>> out.task.status
'waiting'
>>> [t.task_id for t in store.claim("w0", now=1.0)]
['t-000001']
>>> store.complete("t-000001", "w0", {"alpha": 4.5}, now=2.0)
>>> store.submit({"job": "h2"}, key="ck-1", now=3.0).cache_hit
True
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ServiceError, TaskTransitionError
from repro.utils.artifacts import prepare_artifact_path
from repro.utils.journal import (
    append_json_line,
    read_json_lines,
    truncate_torn_tail,
)

#: The task lifecycle states (DESIGN §12.2).
WAITING = "waiting"
CLAIMED = "claimed"
RUNNING = "running"
COMPLETE = "complete"
ERRORED = "errored"

#: Every status a task may carry.
ALL_STATUSES = (WAITING, CLAIMED, RUNNING, COMPLETE, ERRORED)

#: States a same-key resubmission deduplicates onto.
LIVE_STATUSES = (WAITING, CLAIMED, RUNNING)

#: States a task can never leave.
TERMINAL_STATUSES = (COMPLETE, ERRORED)

#: Retry eligibility delay: attempt *n* (1-based) of a failed or expired
#: task waits ``BACKOFF_BASE * BACKOFF_FACTOR**(n - 1)`` seconds.
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0


@dataclass
class TaskRecord:
    """One task's full mutable state inside the store."""

    task_id: str
    key: str
    payload: Dict[str, Any]
    client: str = "anon"
    priority: int = 0
    max_retries: int = 3
    status: str = WAITING
    attempts: int = 0
    submit_index: int = 0
    submitted_at: float = 0.0
    not_before: float = 0.0
    waiting_since: float = 0.0
    worker: Optional[str] = None
    lease_expires: Optional[float] = None
    error: str = ""
    resubmissions: int = 0

    @property
    def live(self) -> bool:
        """Is the task still in flight (waiting/claimed/running)?"""
        return self.status in LIVE_STATUSES

    @property
    def terminal(self) -> bool:
        """Has the task reached a state it can never leave?"""
        return self.status in TERMINAL_STATUSES


@dataclass
class SubmitOutcome:
    """What one :meth:`StateStore.submit` call resolved to.

    Exactly one of three shapes:

    * fresh submission — ``task`` is a new waiting task;
    * ``deduplicated`` — ``task`` is the pre-existing live task for
      the same key;
    * ``cache_hit`` — ``task`` is the completed task and ``result``
      carries its stored result payload (no recomputation).
    """

    task: TaskRecord
    cache_hit: bool = False
    deduplicated: bool = False
    resubmitted: bool = False
    result: Optional[Dict[str, Any]] = None

    @property
    def fresh(self) -> bool:
        """Did this submission enqueue new work?"""
        return not (self.cache_hit or self.deduplicated)


class StateStore:
    """Persistent priority task queue with leases, retries and a result cache.

    Parameters
    ----------
    path:
        JSON-journal location.  ``None`` keeps the store in memory
        (tests, ephemeral pools).  An existing journal is *resumed* —
        replayed into the exact prior state — unless ``fresh`` is set.
    fresh:
        Start a brand-new journal at ``path``.  Refuses to clobber an
        existing file unless ``force`` is also given (the repo-wide
        :class:`~repro.errors.ArtifactError` exit-2 contract).
    lease_seconds:
        How long a claim stays valid without a heartbeat.
    clock:
        Time source used when a mutator is called without an explicit
        ``now`` (defaults to :func:`time.time`); tests pass logical
        times instead.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        fresh: bool = False,
        force: bool = False,
        lease_seconds: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        # A NaN lease never expires, and ``<= 0`` does not reject NaN.
        if not (math.isfinite(lease_seconds) and lease_seconds > 0):
            raise ServiceError(
                f"lease_seconds must be finite and > 0, got {lease_seconds}"
            )
        self.lease_seconds = float(lease_seconds)
        self._clock = clock or time.time
        self._tasks: Dict[str, TaskRecord] = {}
        self._by_key: Dict[str, str] = {}
        self._results: Dict[str, Dict[str, Any]] = {}
        self._worker_heartbeats: Dict[str, float] = {}
        self._submit_counter = 0
        self._journal: Optional[Path] = None  # appended to by _record
        self.path: Optional[Path] = None  # shown by render_status
        self.torn_tail_bytes = 0  # half-written last line dropped on open
        if path is not None:
            path = Path(path)
            if fresh or not path.exists():
                # A *new* journal goes through the artifact guard: an
                # existing file is only truncated under --force.
                self._journal = prepare_artifact_path(path, force=force)
                self._journal.write_text("")
            else:
                self._journal = path
                self._replay(path)
            self.path = self._journal

    @classmethod
    def snapshot(cls, path: Union[str, Path]) -> "StateStore":
        """The state the journal at *path* replays to, read without owning
        it (``repro status``).

        Nothing is written: a torn final line (a live ``repro serve``
        mid-append) is skipped, not truncated; a missing journal is a
        :class:`~repro.errors.ServiceError` and creates no file; and the
        snapshot journals no transition of its own.
        """
        from repro.service.slo import journal_events

        store = cls()
        for event in journal_events(path):
            store._apply(event)
        store.path = Path(path)
        return store

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _replay(self, path: Path) -> None:
        self.torn_tail_bytes = truncate_torn_tail(path)
        events, _ = read_json_lines(
            path, what="statestore journal", error=ServiceError
        )
        for _, event in events:
            self._apply(event)

    def _record(self, event: Dict[str, Any]) -> None:
        self._apply(event)
        if self._journal is not None:
            append_json_line(self._journal, event)

    def _now(self, now: Optional[float]) -> float:
        return float(self._clock() if now is None else now)

    def now(self) -> float:
        """The store's current clock reading (shared by worker pools)."""
        return float(self._clock())

    # ------------------------------------------------------------------
    # Event application (shared by live mutation and journal replay)
    # ------------------------------------------------------------------
    def _apply(self, event: Dict[str, Any]) -> None:
        op = event["op"]
        handler = getattr(self, f"_apply_{op}", None)
        if handler is None:
            raise ServiceError(f"unknown statestore journal op {op!r}")
        handler(event)

    def _apply_submit(self, ev: Dict[str, Any]) -> None:
        self._submit_counter += 1
        task = TaskRecord(
            task_id=ev["task_id"],
            key=ev["key"],
            payload=ev["payload"],
            client=ev["client"],
            priority=int(ev["priority"]),
            max_retries=int(ev["max_retries"]),
            submit_index=self._submit_counter,
            submitted_at=float(ev["now"]),
            not_before=float(ev["now"]),
            waiting_since=float(ev["now"]),
        )
        self._tasks[task.task_id] = task
        self._by_key[task.key] = task.task_id

    def _apply_resubmit(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = WAITING
        task.attempts = 0
        self._release_worker(task)
        task.error = ""
        task.not_before = float(ev["now"])
        task.waiting_since = float(ev["now"])
        task.resubmissions += 1

    def _apply_claim(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = CLAIMED
        task.worker = ev["worker"]
        task.attempts += 1
        task.lease_expires = float(ev["lease_expires"])
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_start(self, ev: Dict[str, Any]) -> None:
        self._tasks[ev["task_id"]].status = RUNNING
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_heartbeat(self, ev: Dict[str, Any]) -> None:
        self._tasks[ev["task_id"]].lease_expires = float(ev["lease_expires"])
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_complete(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = COMPLETE
        self._release_worker(task)
        self._results[task.key] = ev["result"]
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_requeue(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        # A worker-reported failure is still worker contact; a lease
        # expiry is precisely the absence of it.
        worker = ev.get("worker")
        if worker and not ev.get("expired", False):
            self._worker_heartbeats[worker] = float(ev["now"])
        self._release_worker(task)
        task.error = ev.get("error", "")
        if ev["terminal"]:
            task.status = ERRORED
        else:
            task.status = WAITING
            task.not_before = float(ev["not_before"])
            task.waiting_since = float(ev["now"])

    @staticmethod
    def _release_worker(task: TaskRecord) -> None:
        """Drop a task's worker binding (shared by every leaving transition)."""
        task.worker = None
        task.lease_expires = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Dict[str, Any],
        *,
        key: str,
        client: str = "anon",
        priority: int = 0,
        max_retries: int = 3,
        now: Optional[float] = None,
    ) -> SubmitOutcome:
        """Enqueue one content-addressed task (idempotently).

        See :class:`SubmitOutcome` for the three possible resolutions.
        """
        now = self._now(now)
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self._tasks[existing_id]
            if existing.status == COMPLETE:
                # Cache hits bypass the journal (no state changes).
                return SubmitOutcome(
                    task=existing, cache_hit=True, result=self._results.get(key)
                )
            if existing.live:
                return SubmitOutcome(task=existing, deduplicated=True)
            # errored: revive it with a fresh retry budget
            self._record(
                {"op": "resubmit", "task_id": existing.task_id, "now": now}
            )
            return SubmitOutcome(task=existing, resubmitted=True)
        task_id = f"t-{self._submit_counter + 1:06d}"
        self._record(
            {
                "op": "submit",
                "task_id": task_id,
                "key": key,
                "payload": payload,
                "client": client,
                "priority": int(priority),
                "max_retries": int(max_retries),
                "now": now,
            }
        )
        return SubmitOutcome(task=self._tasks[task_id])

    # ------------------------------------------------------------------
    # Claiming and the worker-side lifecycle
    # ------------------------------------------------------------------
    def claim(
        self, worker: str, *, limit: int = 1, now: Optional[float] = None
    ) -> List[TaskRecord]:
        """Hand up to ``limit`` eligible tasks to ``worker``.

        Eligible means ``waiting`` with its retry backoff elapsed.
        Ordering is priority-descending, then FIFO by submit order —
        the alchemiscale claim contract.  Claimed tasks are invisible
        to subsequent claims until their lease expires.
        """
        now = self._now(now)
        if limit < 1:
            raise ServiceError(f"claim limit must be >= 1, got {limit}")
        eligible = sorted(
            (
                t for t in self._tasks.values()
                if t.status == WAITING and t.not_before <= now
            ),
            key=lambda t: (-t.priority, t.submit_index),
        )
        claimed: List[TaskRecord] = []
        for task in eligible[:limit]:
            self._record(
                {
                    "op": "claim",
                    "task_id": task.task_id,
                    "worker": worker,
                    "now": now,
                    "lease_expires": now + self.lease_seconds,
                }
            )
            claimed.append(task)
        return claimed

    def _checked(self, task_id: str, worker: Optional[str],
                 allowed: Sequence[str], op: str) -> TaskRecord:
        task = self._tasks.get(task_id)
        if task is None:
            raise TaskTransitionError(f"{op}: unknown task {task_id!r}")
        if task.status not in allowed:
            raise TaskTransitionError(
                f"{op}: task {task_id} is {task.status!r}, "
                f"expected one of {tuple(allowed)}"
            )
        if worker is not None and task.worker != worker:
            raise TaskTransitionError(
                f"{op}: task {task_id} is held by {task.worker!r}, "
                f"not {worker!r}"
            )
        return task

    def start(self, task_id: str, worker: str,
              now: Optional[float] = None) -> None:
        """Acknowledge a claim: the worker began computing (claimed -> running)."""
        self._checked(task_id, worker, (CLAIMED,), "start")
        self._record({"op": "start", "task_id": task_id, "worker": worker,
                      "now": self._now(now)})

    def heartbeat(self, task_id: str, worker: str,
                  now: Optional[float] = None) -> float:
        """Extend the lease of a claimed/running task; returns the new deadline."""
        now = self._now(now)
        self._checked(task_id, worker, (CLAIMED, RUNNING), "heartbeat")
        deadline = now + self.lease_seconds
        self._record({"op": "heartbeat", "task_id": task_id, "worker": worker,
                      "now": now, "lease_expires": deadline})
        return deadline

    def complete(self, task_id: str, worker: str, result: Dict[str, Any],
                 now: Optional[float] = None) -> None:
        """Finish a task successfully and cache its result under the task key."""
        self._checked(task_id, worker, (CLAIMED, RUNNING), "complete")
        self._record({"op": "complete", "task_id": task_id, "worker": worker,
                      "now": self._now(now), "result": result})

    def fail(self, task_id: str, worker: str, error: str,
             now: Optional[float] = None, *,
             history: Optional[List[Dict[str, float]]] = None) -> TaskRecord:
        """Report a task failure; requeues with backoff or errors out terminally.

        *history* is a convergence error's per-cycle record; a non-empty
        one is journaled on the ``requeue`` line.
        """
        now = self._now(now)
        task = self._checked(task_id, worker, (CLAIMED, RUNNING), "fail")
        self._requeue(task, error=error, now=now, history=history)
        return task

    def _requeue(
        self, task: TaskRecord, error: str, now: float, *, expired: bool = False,
        history: Optional[List[Dict[str, float]]] = None,
    ) -> None:
        """The one requeue/backoff path shared by ``fail`` and lease expiry.

        Emits the single ``requeue`` journal op both callers share:
        terminality (``attempts > max_retries``), the exponential
        backoff eligibility delay, the reporting worker and whether the
        requeue came from a lease expiry (``expired``) are all decided
        here, so the two failure paths cannot drift apart.
        """
        terminal = task.attempts > task.max_retries
        delay = BACKOFF_BASE * BACKOFF_FACTOR ** (task.attempts - 1)
        event = {
            "op": "requeue",
            "task_id": task.task_id,
            "worker": task.worker,
            "error": error,
            "terminal": terminal,
            "expired": expired,
            "not_before": now + delay,
            "now": now,
        }
        if history:
            event["history"] = history
        self._record(event)

    def expire_leases(self, now: Optional[float] = None) -> List[TaskRecord]:
        """Requeue every claimed/running task whose lease deadline passed.

        This is the crashed-worker recovery path: a worker that died
        after claiming never completes nor heartbeats, so its tasks
        return to the queue here (or reach terminal ``errored`` once
        the retry budget is spent).
        """
        now = self._now(now)
        expired = [
            t for t in self._tasks.values()
            if t.status in (CLAIMED, RUNNING)
            and t.lease_expires is not None and t.lease_expires < now
        ]
        for task in sorted(expired, key=lambda t: t.submit_index):
            self._requeue(task, error=f"lease expired (worker {task.worker})",
                          now=now, expired=True)
        return expired

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, task_id: str) -> TaskRecord:
        """Look one task up by id (raises for unknown ids)."""
        task = self._tasks.get(task_id)
        if task is None:
            raise TaskTransitionError(f"unknown task {task_id!r}")
        return task

    def result_for_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result payload for a completed key, if any."""
        return self._results.get(key)

    def tasks(self, status: Optional[str] = None) -> List[TaskRecord]:
        """All tasks (optionally filtered by status), in submit order."""
        if status is not None and status not in ALL_STATUSES:
            raise ServiceError(
                f"unknown status {status!r}; expected one of {ALL_STATUSES}"
            )
        out = [
            t for t in self._tasks.values()
            if status is None or t.status == status
        ]
        return sorted(out, key=lambda t: t.submit_index)

    def worker_heartbeats(self) -> Dict[str, float]:
        """Last store-contact time per worker (claim/start/heartbeat/
        complete/fail), rebuilt identically by journal replay.

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=0.0)
        >>> _ = s.claim("w0", now=1.0)
        >>> s.worker_heartbeats()
        {'w0': 1.0}
        """
        return dict(self._worker_heartbeats)

    def counts(self) -> Dict[str, int]:
        """Task counts per lifecycle status (zero statuses omitted).

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=0.0)
        >>> s.counts()
        {'waiting': 1}
        """
        out: Dict[str, int] = {}
        for status in ALL_STATUSES:
            n = sum(1 for t in self._tasks.values() if t.status == status)
            if n:
                out[status] = n
        return out

    def oldest_waiting_age(self, now: Optional[float] = None) -> float:
        """Age of the longest-waiting eligible task (0.0 for an empty queue).

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=1.0)
        >>> s.oldest_waiting_age(now=4.0)
        3.0
        """
        now = self._now(now)
        waiting = [t for t in self._tasks.values() if t.status == WAITING]
        if not waiting:
            return 0.0
        return max(0.0, now - min(t.waiting_since for t in waiting))

    def render_status(self, now: Optional[float] = None) -> str:
        """Human-readable queue dashboard (the ``repro status`` output).

        Beyond the per-task table this surfaces the service health
        signals — per-worker last-heartbeat age with its
        live/degraded/stuck verdict (:func:`repro.service.slo.health_from_store`)
        and the oldest-waiting queue age.
        """
        from repro.service.slo import health_from_store
        from repro.utils.reports import TableFormatter

        now = self._now(now)
        lines = [
            f"statestore: {len(self._tasks)} task(s), "
            f"{len(self._results)} cached result(s)"
            + (f" — journal {self.path}" if self.path else " (in-memory)")
        ]
        counts = self.counts()
        if counts:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in counts.items()))
        if counts.get(WAITING):
            lines.append(
                f"  oldest waiting task: {self.oldest_waiting_age(now):g}s"
            )
        if self.torn_tail_bytes:
            lines.append(f"  torn_tail_bytes={self.torn_tail_bytes} (dropped on open)")
        if self._tasks:
            table = TableFormatter(
                ["task", "status", "prio", "attempts", "client", "worker", "key"],
                title="tasks",
            )
            for t in self.tasks():
                table.add_row([
                    t.task_id, t.status, t.priority,
                    f"{t.attempts}/{t.max_retries + 1}",
                    t.client, t.worker or "-", t.key[:16],
                ])
            lines += ["", table.render()]
        health = health_from_store(self, now)
        if health:
            table = TableFormatter(
                ["worker", "last heartbeat", "age", "state", "live tasks"],
                title="workers",
            )
            for row in health:
                table.add_row([
                    row.worker, f"t={row.last_heartbeat:g}",
                    f"{row.age:g}s", row.state, row.live_tasks,
                ])
            lines += ["", table.render()]
        return "\n".join(lines)
