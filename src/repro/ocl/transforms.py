"""Kernel-level code transforms: loop collapse (4.4), indirect
elimination (4.3).

Both are *real* transformations over real index math/data — tested as
bijections/equalities — whose performance effect is expressed by
updating the kernel's model declarations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DeviceError
from repro.ocl.kernel import Kernel


# ----------------------------------------------------------------------
# Fine-grained parallelization: collapsing the (p, m) loop (Section 4.4)
# ----------------------------------------------------------------------
def collapse_pm_loop(p_max: int) -> np.ndarray:
    """Enumerate the collapsed (p, m) loop: idx -> (p, m).

    The paper's transformation of the Adams-Moulton multipole loop::

        for (idx = 0; idx < (pmax+1)^2; idx++) {
            p = sqrt(idx); m = idx - p^2 - p;

    Returns an ``((p_max+1)^2, 2)`` table of (p, m) pairs in idx order,
    exactly the pairs the original nest ``for p: for m in [-p, p]``
    produces — the bijection the tests verify.
    """
    if p_max < 0:
        raise DeviceError(f"p_max must be >= 0, got {p_max}")
    idx = np.arange((p_max + 1) ** 2)
    p = np.floor(np.sqrt(idx)).astype(np.int64)
    m = idx - p * p - p
    return np.stack([p, m], axis=1)


def expand_pm_index(p: int, m: int) -> int:
    """The original nest's flat index: idx = p^2 + m + p."""
    if abs(m) > p:
        raise DeviceError(f"invalid (p, m) = ({p}, {m})")
    return p * p + m + p


def collapse_kernel(kernel: Kernel, p_max: int) -> Kernel:
    """Apply the loop collapse to a kernel's parallelism declaration.

    The un-collapsed nest can only spread over ``p_max + 1`` threads
    (outer loop); the collapsed loop exposes ``(p_max + 1)^2`` —
    Section 4.4's fine-grained parallelization.
    """
    if kernel.parallel_width is None:
        raise DeviceError(
            f"kernel {kernel.name!r} is already fully parallel; nothing to collapse"
        )
    return kernel.with_updates(
        name=f"{kernel.name}_collapsed",
        parallel_width=(p_max + 1) ** 2,
    )


# ----------------------------------------------------------------------
# Indirect-access elimination (Section 4.3)
# ----------------------------------------------------------------------
def build_gather_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Materialize C = f(A) with C[i] = A[B[i]].

    This is the once-per-system mapping of Section 4.3 (e.g. permuting
    ``coord_center`` into global-atom-ID order); after it exists, every
    kernel reads C directly.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b.ndim != 1:
        raise DeviceError(f"index array must be 1-D, got shape {b.shape}")
    if b.size and (b.min() < 0 or b.max() >= a.shape[0]):
        raise DeviceError("index array points outside the source array")
    return a[b]


def apply_gather_map(c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The transformed direct access: just C[i]."""
    return np.asarray(c)[np.asarray(i)]


def eliminate_indirect_accesses(kernel: Kernel) -> Kernel:
    """Update a kernel's model: indirect gathers become streamed reads."""
    if kernel.indirect_accesses_per_item == 0:
        raise DeviceError(
            f"kernel {kernel.name!r} declares no indirect accesses"
        )
    extra_stream = 8.0 * kernel.indirect_accesses_per_item  # now contiguous
    return kernel.with_updates(
        name=f"{kernel.name}_direct",
        indirect_accesses_per_item=0.0,
        bytes_read_per_item=kernel.bytes_read_per_item + extra_stream,
    )
