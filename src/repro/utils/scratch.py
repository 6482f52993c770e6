"""One process-wide scratch block for the kernels' largest temporary.

The Sumup / H loops (``backends/base.py``) and the Hartree consumer
(``dft/hartree.py``) each need one temporary of order rows x columns per
step.  Allocating it per step makes a phase's speed depend on what the
process happened to free earlier: glibc serves a megabyte array from the
heap only after an ``mmap``ped block at least that large has once been
freed, and page-faults it in on every allocation until then (DESIGN
§5.1).  So the temporary lives in a block that is grown on demand and
never shrunk.

There is one block per process, not one per backend or solver: kernels
do not nest and the drivers are single-threaded (a fleet interleaves
molecules between kernel calls, never inside one — :func:`scratch`
raises if that ever stops being true), so the largest
request sizes it — 2.9 MB on the 26-atom chain — instead of every live
molecule holding its own (a fleet wave of eight small molecules held
6 MB of them, 5.5 % of that workload's peak RSS).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

_block = np.empty(0)
_held = False


@contextmanager
def scratch(shape: Tuple[int, ...]) -> Iterator[np.ndarray]:
    """Lend a C-contiguous float64 array of *shape* on the process's
    scratch block for the ``with`` body.

    Contents are whatever the previous user left.  One lease at a time:
    a second request while one is out — a nested kernel, a second
    thread — would silently share memory, so it raises instead.

    >>> with scratch((2, 3)) as work:
    ...     work.shape
    (2, 3)
    >>> with scratch((2,)), scratch((2,)):
    ...     pass
    Traceback (most recent call last):
        ...
    RuntimeError: scratch block is already lent out (kernels must not nest)
    """
    global _block, _held
    if _held:
        raise RuntimeError("scratch block is already lent out (kernels must not nest)")
    size = math.prod(shape)
    if _block.size < size:
        _block = np.empty(size)
    _held = True
    try:
        yield _block[:size].reshape(shape)
    finally:
        _held = False
