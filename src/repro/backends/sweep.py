"""Ordered sweeps on two cores: the calling thread plus one helper.

A Sumup or H sweep is a loop over independent views, and a Hartree
back-interpolation one over independent atoms, whose kernels are BLAS
calls that release the GIL.  :func:`ordered_sweep` runs that loop on the
calling thread and one helper thread, and keeps everything but the
kernels where the serial loop had it:

- the caller walks the items (views or atoms) in order and gets each
  block itself, so the kept blocks, the cached plans, the profile and
  the obs spans are touched by one thread only — no lock;
- the fetched blocks form one kernel queue, and whichever thread is
  free claims its oldest kernel: the helper whenever it has none, the
  caller only when :data:`_LOOKAHEAD` items are in flight (fetched, not
  yet committed) or it has fetched every block;
- results are committed on the caller in item order, so every
  scatter and every floating-point sum happens in the serial loop's
  order and the outputs are that loop's bit for bit.

Width comes from the machine, not from a setting: usable cores over the
BLAS threads the process pinned (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``; unpinned BLAS threads over
every core).  Below width 2 — every unpinned run — and on sweeps too
small to pay the handoff, the loop runs inline, exactly as before.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Collection, Deque, Dict, Mapping, Optional, Tuple, TypeVar

#: The BLAS thread pins, in the order a BLAS reads them.
_BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Sweeps over fewer priced elements than this run inline (a view's
#: elements are its block's; a Hartree solve prices its plan floats in
#: the same unit, ``dft/hartree._PLAN_FLOATS_PER_ELEMENT``).  Measured on
#: a two-core VM: with methane (73 k) and ethane (203 k) on two cores a
#: small-molecule job mix ran 13 % slower (H2, 8 k, and water, 33 k,
#: are one view); the 26- and 32-atom chains (2.33 M, 3.56 M) gain
#: 18-30 % per sweep.  Re-measured on the kernel queue: methane's and
#: ethane's two-view Sumup + H take 1.73 / 2.58 ms on two cores against
#: 1.09 / 2.22 ms inline (300 alternations), and with no floor the mix
#: read screened sweeps +8 %, time to solution +6 % and peak RSS +2.7 %
#: (six alternating pairs).
_SWEEP_ELEMENTS = 500_000

R = TypeVar("R")
T = TypeVar("T")


def sweep_width(cores: int, environ: Mapping[str, str]) -> int:
    """Concurrent kernels a process can run: *cores* over its BLAS threads.

    The first pin that parses as a positive integer sets the BLAS
    thread count; with none, BLAS uses every core and the width is 1.

    >>> sweep_width(2, {"OPENBLAS_NUM_THREADS": "1"})
    2
    >>> sweep_width(2, {})
    1
    >>> sweep_width(8, {"OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "1"})
    2
    """
    threads = cores
    for name in _BLAS_PINS:
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return cores // min(threads, cores)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


#: Items in flight — fetched, not yet committed — at which the caller
#: stops fetching and runs the oldest unclaimed kernel itself, or waits
#: for the oldest result: the bound on the blocks a stream sweep holds
#: and on the results (Gram blocks) waiting to commit behind a slow one.
#: The 32-atom chain's warm dense Sumup + H (15 views), one pinned
#: process, 60 alternations, medians: inline 65.7 ms, an idle-only
#: hand-off to the helper 47.4, 2 → 47.3, 3 → 42.3, 4 → 36.9 (the helper
#: busy 90 % of the sweep), 6 → 37.0.  The warm sweep's memory bound
#: (``tests/test_fused_views.py``, 2.03 MB on the 26-atom chain) sets
#: the top: the H sweep's traced peak over 120 sweeps is 1.94 MB at 4,
#: 2.05 MB at 5, and 2.10 MB over 30 when only unclaimed blocks are
#: bounded (up to seven Grams then wait behind a slow front kernel).
_LOOKAHEAD = 4

#: This process's width, fixed at import like the BLAS pins it reads.
_WIDTH = sweep_width(_usable_cores(), os.environ)
#: The process's one helper, started by the first two-core sweep.
_helper: Optional[ThreadPoolExecutor] = None
_helper_lock = threading.Lock()


def _drop_helper() -> None:
    """A forked child has no helper thread; it starts its own on demand."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_helper)


def _the_helper() -> ThreadPoolExecutor:
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-sweep")
        return _helper


class _Queue:
    """One sweep's kernels: the fetched, unclaimed ones, claimed oldest
    first, and the finished results until they commit."""

    def __init__(self, kernel: Callable[[object, object], object]) -> None:
        self.kernel = kernel
        self.cond = threading.Condition()
        self.unclaimed: Deque[Tuple[int, object, object]] = deque()
        self.done: Dict[int, Tuple[object, Optional[BaseException]]] = {}
        self.closed = False

    def put(self, job: Tuple[int, object, object]) -> None:
        with self.cond:
            self.unclaimed.append(job)
            self.cond.notify_all()

    def claim(self, wait: bool) -> Optional[Tuple[int, object, object]]:
        with self.cond:
            if wait:
                self.cond.wait_for(lambda: self.unclaimed or self.closed)
            return self.unclaimed.popleft() if self.unclaimed else None

    def run(self, job: Tuple[int, object, object]) -> None:
        i, item, phi = job
        try:
            done: Tuple[object, Optional[BaseException]] = (self.kernel(item, phi), None)
        except BaseException as error:  # re-raised on the caller, in item order
            done = (None, error)
        with self.cond:
            self.done[i] = done
            self.cond.notify_all()

    def take(self, i: int, wait: bool) -> Optional[Tuple[object, Optional[BaseException]]]:
        """Kernel *i*'s ``(result, error)``, or None while it is not done."""
        with self.cond:
            if wait:
                self.cond.wait_for(lambda: i in self.done)
            return self.done.pop(i, None)

    def serve(self) -> None:
        """The helper's part: run the oldest kernel until the queue closes."""
        while (job := self.claim(wait=True)) is not None:
            self.run(job)

    def close(self) -> None:
        """Drop what nobody claimed; the helper returns after its kernel."""
        with self.cond:
            self.unclaimed.clear()
            self.closed = True
            self.cond.notify_all()


def ordered_sweep(
    items: Collection[T],
    elements: int,
    block: Callable[[T], object],
    kernel: Callable[[T, object], R],
    commit: Callable[[T, R], None],
) -> None:
    """``commit(item, kernel(item, block(item)))`` for every item, in order.

    The items are a sweep's views or a Hartree solve's atoms.  *block*
    and *commit* run on the calling thread, in item order; *kernel* runs
    on the caller or on the helper, so it may only read what the sweep
    shares and write its own result and the thread's scratch block.  A
    sweep priced under :data:`_SWEEP_ELEMENTS` *elements*, of fewer than
    two items, or at width 1 runs inline.  An error in *block* or
    *commit*, or in a kernel on either thread (at its item's turn to
    commit), raises here, after the helper is idle again.
    """
    if _WIDTH < 2 or len(items) < 2 or elements < _SWEEP_ELEMENTS:
        for item in items:
            commit(item, kernel(item, block(item)))
        return
    items = list(items)
    queue = _Queue(kernel)
    serving = _the_helper().submit(queue.serve)
    committed = 0

    def commit_done(wait: bool) -> None:
        """Commit the finished results at the front, first waiting for
        the front one if *wait*."""
        nonlocal committed
        while committed < len(items) and (done := queue.take(committed, wait)):
            result, error = done
            if error is not None:
                raise error
            commit(items[committed], result)
            committed, wait = committed + 1, False

    def work() -> None:
        """Run the oldest unclaimed kernel here, or wait for the front one."""
        job = queue.claim(wait=False)
        if job is not None:
            queue.run(job)
        commit_done(wait=job is None)

    try:
        for i, item in enumerate(items):
            queue.put((i, item, block(item)))
            commit_done(wait=False)
            while i + 1 - committed >= _LOOKAHEAD:  # items in flight
                work()
        while committed < len(items):
            work()
    finally:
        # Leave the helper idle for the next sweep: a serve still queued
        # behind another caller's sweep never starts.
        queue.close()
        if not serving.cancel():
            serving.exception()
