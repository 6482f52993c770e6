"""The single load-imbalance definition shared across the codebase.

Load imbalance is always the **max/mean ratio** of per-worker load
(1.0 = perfect balance).  The batch mappings
(:meth:`repro.mapping.strategies.BatchAssignment.imbalance`, load =
grid points) and the analysis layer
(:mod:`repro.obs.analyze.imbalance`, load = busy seconds) both delegate
here, so "imbalance" can never silently mean two different things in
one report.

>>> max_mean_imbalance([3.0, 1.0])
1.5
>>> max_mean_imbalance([2, 2, 2])
1.0
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np


def max_mean_imbalance(loads: Union[Sequence[float], np.ndarray]) -> float:
    """Max/mean ratio of per-worker loads (1.0 = perfect balance).

    Raises :class:`ValueError` when there are no workers or no work
    (mean <= 0) — callers translate that into their own subsystem
    error types.

    >>> max_mean_imbalance([1.0, 1.0, 4.0])
    2.0
    >>> max_mean_imbalance([])
    Traceback (most recent call last):
        ...
    ValueError: imbalance of zero workers is undefined
    """
    arr = np.asarray(loads, dtype=float)
    if arr.size == 0:
        raise ValueError("imbalance of zero workers is undefined")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise ValueError("imbalance of zero total load is undefined")
    return float(arr.max() / mean)
