"""Ordered view sweeps on two cores: the calling thread plus one helper.

A Sumup or H sweep is a loop over independent views whose kernels are
BLAS calls that release the GIL.  :func:`ordered_sweep` runs that loop
on the calling thread and one helper thread, and keeps everything but
the kernels where the serial loop had it:

- the caller walks the views in order and gets each block itself, so
  the kept blocks, the profile and the obs spans are
  touched by one thread only — no lock;
- the helper runs kernels only: when it is idle the caller hands it the
  ready block's kernel, otherwise the caller runs that kernel itself —
  at most one helper job is outstanding;
- results are committed on the caller in view order, so every
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
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Collection, Deque, Mapping, Optional, Tuple, TypeVar

from repro.grids.sparsity import BatchView

#: The BLAS thread pins, in the order a BLAS reads them.
_BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Sweeps over fewer priced elements than this run inline.  Measured on
#: a two-core VM: with methane (73 k) and ethane (203 k) on two cores a
#: small-molecule job mix ran 13 % slower (H2, 8 k, and water, 33 k,
#: are one view); the 26- and 32-atom chains (2.33 M, 3.56 M) gain
#: 18-30 % per sweep.
_SWEEP_ELEMENTS = 500_000

R = TypeVar("R")


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


def ordered_sweep(
    views: Collection[BatchView],
    elements: int,
    block: Callable[[BatchView], object],
    kernel: Callable[[BatchView, object], R],
    commit: Callable[[BatchView, R], None],
) -> None:
    """``commit(view, kernel(view, block(view)))`` for every view, in order.

    *block* and *commit* run on the calling thread, in view order;
    *kernel* runs on the caller or on the helper, so it may only read
    what the sweep shares and write its own result and the thread's
    scratch block.  A sweep
    priced under :data:`_SWEEP_ELEMENTS` *elements*, of fewer than two
    views, or at width 1 runs inline.  A kernel that raises on the
    helper raises here, after the helper is idle again.
    """
    if _WIDTH < 2 or len(views) < 2 or elements < _SWEEP_ELEMENTS:
        for view in views:
            commit(view, kernel(view, block(view)))
        return
    helper = _the_helper()
    queued: Deque[Tuple[BatchView, Future]] = deque()
    outstanding: Optional[Future] = None
    try:
        for view in views:
            phi = block(view)
            while queued and queued[0][1].done():
                done, result = queued.popleft()
                commit(done, result.result())
            if outstanding is None or outstanding.done():
                outstanding = helper.submit(kernel, view, phi)
                queued.append((view, outstanding))
            else:
                inline: Future = Future()
                inline.set_result(kernel(view, phi))
                queued.append((view, inline))
        while queued:
            done, result = queued.popleft()
            commit(done, result.result())
    finally:
        if outstanding is not None:
            # Leave the helper idle for the next sweep.  Its own error, if
            # any, was raised above or gives way to the one in flight.
            outstanding.exception()
