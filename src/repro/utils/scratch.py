"""One scratch block per thread for the kernels' largest temporary.

The Sumup / H kernels (``backends/base.py``) and the Hartree consumer
(``dft/hartree.py``) each need one temporary of order rows x columns per
step.  Allocating it per step makes a phase's speed depend on what the
process happened to free earlier: glibc serves a megabyte array from the
heap only after an ``mmap``ped block at least that large has once been
freed, and page-faults it in on every allocation until then (DESIGN
§5.1).  So the temporary lives in a block that is grown on demand and
never shrunk.

There is one block per thread, not one per backend or solver: a kernel
never calls another kernel on its thread (:func:`scratch` raises if that
ever stops being true), so the largest request a thread serves sizes its
block — 2.9 MB on the 26-atom chain — and the molecules a process runs
one after another, a fleet wave's groups included, reuse it instead of
each allocating its own.  A process holds one block on its calling
thread and, when its view or Hartree sweeps run on two cores
(:mod:`repro.backends.sweep`), one on the sweep helper.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np


class _Lease(threading.local):
    """The calling thread's block and whether it is lent out; class
    attributes are every thread's starting state."""

    block = np.empty(0)
    held = False


_lease = _Lease()


def held_block() -> np.ndarray:
    """The calling thread's scratch block (empty before its first lease).

    >>> with scratch((3,)):
    ...     pass
    >>> held_block().size >= 3
    True
    """
    return _lease.block


@contextmanager
def scratch(shape: Tuple[int, ...]) -> Iterator[np.ndarray]:
    """Lend a C-contiguous float64 array of *shape* on the calling
    thread's scratch block for the ``with`` body.

    Contents are whatever the thread's previous user left.  One lease
    per thread at a time: a second request while one is out — a nested
    kernel — would silently share memory, so it raises instead.

    >>> with scratch((2, 3)) as work:
    ...     work.shape
    (2, 3)
    >>> with scratch((2,)), scratch((2,)):
    ...     pass
    Traceback (most recent call last):
        ...
    RuntimeError: scratch block is already lent out (kernels must not nest)
    """
    lease = _lease
    if lease.held:
        raise RuntimeError("scratch block is already lent out (kernels must not nest)")
    size = math.prod(shape)
    if lease.block.size < size:
        lease.block = np.empty(size)
    lease.held = True
    try:
        yield lease.block[:size].reshape(shape)
    finally:
        lease.held = False
