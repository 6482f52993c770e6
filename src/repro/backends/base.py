"""The execution-backend seam under the SCF/CPSCF drivers.

The paper's central claim (§4.1) is a *single-source* pipeline whose
hot phases — ``DM``, ``Sumup``, ``Rho``, ``H`` — run unchanged on
heterogeneous backends.  :class:`ExecutionBackend` is that seam for
this reproduction: the four phase operations the drivers need
(:meth:`~ExecutionBackend.basis_block`,
:meth:`~ExecutionBackend.density_on_grid`,
:meth:`~ExecutionBackend.potential_matrix`,
:meth:`~ExecutionBackend.first_order_dm`), implemented once as
one loop over the builder's fused batch views
(:class:`~repro.grids.sparsity.BatchViews` — dense and screened differ
in a view's columns, not in the code path).  Both registered backends
read their basis blocks from one source, the host engine's bounded LRU
block cache, and so are *bit-exact* with each other; the ``device``
backend differs only in the price it charges each phase on the
:mod:`repro.ocl` accelerator model.

Every backend records a per-phase :class:`BackendProfile` (calls,
elements processed, wall seconds, block-cache hits/misses, device
launch and transfer statistics) which the CLI and
:mod:`repro.utils.reports` surface — the repo's end-to-end
observability of the phases the paper names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.backends.sweep import ordered_sweep
from repro.errors import BackendError
from repro.grids.sparsity import BatchView
from repro.obs.tracer import obs_span
from repro.utils.linalg import mirror_upper
from repro.utils.scratch import scratch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dft.hamiltonian import MatrixBuilder


# ----------------------------------------------------------------------
# The shared view-local kernel math.
#
# All backends call these exact functions in the exact same view order,
# which is what makes the host/device parity *bitwise* rather
# than merely approximate: given bit-identical basis blocks, the
# floating-point operation sequence is identical.  Each skips the
# flops the mathematics does not need, as far as numpy's BLAS lets it —
# a quadratic form skips the zero quarter of its folded triangle, a
# weighted Gram matrix is a symmetric rank-k update — and writes its one
# rows x cols temporary into the caller's *work* block (the loops lease
# the running thread's scratch block: repro.utils.scratch).
# ----------------------------------------------------------------------
def fold_upper(matrix: np.ndarray) -> np.ndarray:
    """Upper-triangular ``T`` with ``x @ T @ x == x @ matrix @ x`` for any
    square *matrix*: both off-diagonal triangles land on the upper one."""
    return np.triu(matrix, 1) + np.tril(matrix, -1).T + np.diag(np.diag(matrix))


def quadratic_form_rows(
    phi: np.ndarray, upper: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """``phi[p] @ upper @ phi[p]`` per row, *upper* upper-triangular.

    The lower-left quarter of *upper* is zero, so the left half of
    ``phi @ upper`` reads only the left half of *phi*: two products,
    three quarters of a GEMM's flops.  numpy's own BLAS on purpose —
    ``scipy.linalg.blas.dtrmm`` does half the flops, but scipy's wheel
    carries a second OpenBLAS whose thread pool fights numpy's: with
    threads unpinned on two cores a water SCF took 0.14-0.19 s instead
    of 0.07 and one Sumup + Hartree + H round on the 26-atom chain
    145-172 ms instead of 64 (DESIGN §8).
    """
    rows, n = phi.shape
    half = n // 2
    flat = work.reshape(-1)
    left = flat[: rows * half].reshape(rows, half)
    np.matmul(phi[:, :half], upper[:half, :half], out=left)
    out = np.einsum("pi,pi->p", left, phi[:, :half])
    right = flat[: rows * (n - half)].reshape(rows, n - half)
    np.matmul(phi, upper[:, half:], out=right)
    out += np.einsum("pi,pi->p", right, phi[:, half:])
    return out


def factored_form_rows(
    phi: np.ndarray, factors: np.ndarray, k: int, work: np.ndarray
) -> np.ndarray:
    """``phi[p] @ P @ phi[p]`` per row, ``P = L Lᵀ`` from *factors* ``L`` (*k*
    columns) or ``L Rᵀ + R Lᵀ`` from ``[L | R]``: one product and a row dot.
    ``[L_1 | … | L_m | R]`` is m densities against one shared ``R``, still
    one product.  Returns ``(n_densities, rows)``."""
    a = work.reshape(-1)[: phi.shape[0] * factors.shape[1]].reshape(phi.shape[0], -1)
    np.matmul(phi, factors, out=a)
    if a.shape[1] == k:
        return np.einsum("pi,pi->p", a, a)[None]
    right = a[:, -k:]
    out = np.empty((a.shape[1] // k - 1, a.shape[0]))
    for j, row in enumerate(out):
        np.einsum("pi,pi->p", a[:, j * k : (j + 1) * k], right, out=row)
    out *= 2.0
    return out


def weighted_gram(phi: np.ndarray, wv: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``phi.T @ diag(wv) @ phi`` as ``A+.T @ A+ - A-.T @ A-``.

    Rows are scaled by ``sqrt|wv|`` and split by the sign of *wv*
    (zero-weight rows drop out), so each term is ``a.T @ a`` — numpy
    routes that to ``syrk``, half a GEMM's flops and an exactly
    symmetric result.
    """
    positive, negative = np.flatnonzero(wv > 0.0), np.flatnonzero(wv < 0.0)
    order = np.concatenate([positive, negative])
    a = work[: order.size]
    np.take(phi, order, axis=0, out=a, mode="clip")
    a *= np.sqrt(np.abs(wv[order]))[:, None]
    plus, minus = a[: positive.size], a[positive.size :]
    gram = plus.T @ plus
    gram -= minus.T @ minus
    return gram


def first_order_dm_dense(
    h1: np.ndarray,
    inv_gaps: np.ndarray,
    c_occ: np.ndarray,
    c_virt: np.ndarray,
    f_occ: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DM phase: ``U_ai``, ``C^(1)`` and ``P^(1)`` (Eq. 7, Sternheimer)."""
    h1_vo = c_virt.T @ h1 @ c_occ  # (n_virt, n_occ)
    u = h1_vo * inv_gaps
    c1_occ = c_virt @ u  # (n_basis, n_occ)
    p1 = (c1_occ * f_occ[None, :]) @ c_occ.T
    return u, c1_occ, p1 + p1.T  # Eq. (7): C1 C + C C1


@dataclass(frozen=True)
class Factored:
    """A density matrix by its ``(n_basis, k)`` factors: ``P = L Lᵀ``,
    or ``L Rᵀ + R Lᵀ`` with a *right* (DESIGN §8).  A *left* of shape
    ``(m, n_basis, k)`` is m density matrices ``L_j Rᵀ + R L_jᵀ`` against
    one shared *right* — the CPSCF field directions against ``C_occ``."""

    left: np.ndarray
    right: Optional[np.ndarray] = None

    @classmethod
    def occupied(cls, c: np.ndarray, occupations: np.ndarray) -> "Factored":
        """``L = C_occ sqrt(f_occ)`` of ``P = C diag(f) Cᵀ``."""
        occ = occupations > 0.0
        return cls(c[:, occ] * np.sqrt(occupations[occ]))

    def matrix(self) -> np.ndarray:
        """The dense ``P`` (references, device pricing); ``(m, n_basis,
        n_basis)`` for m densities."""
        half = self.left @ (self.left if self.right is None else self.right).T
        return half if self.right is None else half + np.swapaxes(half, -1, -2)


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
@dataclass
class PhaseStats:
    """Accumulated counters for one backend phase."""

    calls: int = 0
    elements: int = 0  # grid-point x basis (or matrix) elements processed
    seconds: float = 0.0

    def record(self, elements: int, seconds: float, calls: int = 1) -> None:
        self.calls += int(calls)
        self.elements += int(elements)
        self.seconds += float(seconds)


@dataclass
class BackendProfile:
    """Per-phase execution statistics of one backend instance.

    Phases use the paper's names where they exist: ``Sumup`` (density on
    the grid), ``H`` (potential-matrix integration), ``DM`` (first-order
    density matrix) plus ``basis`` for actual basis-block evaluations
    (cache misses evaluate; hits do not).  Phase rows are what the cost
    models price — a batch is the dispatch unit, its own columns wide —
    so they do not move when execution fuses batches; the cache counters
    are real traffic, one lookup per fused view.
    """

    backend: str
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_peak_bytes: int = 0
    cache_max_bytes: int = 0
    device_launches: int = 0
    device_modeled_seconds: float = 0.0
    device_bytes_transferred: int = 0
    # Screening counters (all zero on unscreened runs), charged once per
    # Sumup/H pass: (batch, atom) basis blocks the mask kept, and the
    # relevant-atom blocks it dropped.
    screen_blocks_evaluated: int = 0
    screen_blocks_skipped: int = 0
    # The fused views every sweep iterates and the share of their block
    # entries that is merge padding (held, computed on, always zero),
    # set at bind time.
    view_count: int = 0
    view_padded_fraction: float = 0.0

    def record(
        self, phase: str, elements: int, seconds: float, calls: int = 1
    ) -> None:
        self.phases.setdefault(phase, PhaseStats()).record(elements, seconds, calls)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly snapshot (used by the backend benchmark)."""
        return {
            "backend": self.backend,
            "phases": {
                name: {
                    "calls": s.calls,
                    "elements": s.elements,
                    "seconds": s.seconds,
                }
                for name, s in self.phases.items()
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "peak_bytes": self.cache_peak_bytes,
                "max_bytes": self.cache_max_bytes,
            },
            "device": {
                "launches": self.device_launches,
                "modeled_seconds": self.device_modeled_seconds,
                "bytes_transferred": self.device_bytes_transferred,
            },
            "sparsity": {
                "blocks_evaluated": self.screen_blocks_evaluated,
                "blocks_skipped": self.screen_blocks_skipped,
            },
            "views": {
                "count": self.view_count,
                "padded_fraction": self.view_padded_fraction,
            },
        }


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class ExecutionBackend:
    """One execution engine for the grid-heavy phase operations.

    A backend is constructed unbound (so drivers can accept either a
    name or a configured instance) and bound to one
    :class:`~repro.dft.hamiltonian.MatrixBuilder` via :meth:`bind`
    before use.  Subclasses override :meth:`basis_block` (where a
    view's ``(batch_points, n_cols)`` chi table comes from) and may
    charge a price after the phase implementations; the numerical work
    itself is shared so results stay bit-identical across backends.
    """

    #: Registry name, set by ``@register_backend``.
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.builder: Optional["MatrixBuilder"] = None
        self.profile = BackendProfile(backend=self.name)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, builder: "MatrixBuilder") -> "ExecutionBackend":
        """Attach this backend to one matrix builder (idempotent)."""
        if self.builder is builder:
            return self
        if self.builder is not None:
            raise BackendError(
                f"backend {self.name!r} is already bound to another builder"
            )
        self.builder = builder
        self._on_bind()
        self.profile.view_count = len(builder.views)
        self.profile.view_padded_fraction = builder.views.padded_fraction
        return self

    def _on_bind(self) -> None:
        """Hook for subclasses (charge staged tables, size caches...)."""

    def _require_bound(self) -> "MatrixBuilder":
        if self.builder is None:
            raise BackendError(
                f"backend {self.name!r} is not bound; call bind(builder) first"
            )
        return self.builder

    # ------------------------------------------------------------------
    # Validation shared by all backends
    # ------------------------------------------------------------------
    def _check_density_matrix(self, dm):
        nb = self._require_bound().basis.n_basis
        if isinstance(dm, Factored):
            parts = [np.asarray(a, dtype=float) for a in (dm.left, dm.right) if a is not None]
            left, *right = parts
            # m densities: m >= 1 lefts, each shaped like the one shared right.
            wide = left.ndim == 3
            factor = left[0] if wide and len(left) else left
            if (
                (wide and not (right and len(left)))
                or factor.ndim != 2 or len(factor) != nb
                or any(r.shape != factor.shape for r in right)
            ):
                shapes = [a.shape for a in parts]
                raise ValueError(f"density factors of shapes {shapes}, basis size {nb}")
            if not all(np.isfinite(a).all() for a in parts):
                raise ValueError("density factors have non-finite entries")
            return Factored(*parts)
        p = np.asarray(dm, dtype=float)
        if p.shape != (nb, nb):
            raise ValueError(f"density matrix shape {p.shape}, basis size {nb}")
        if not np.isfinite(p).all():
            raise ValueError("density matrix has non-finite entries")
        return p

    # ------------------------------------------------------------------
    # The four phase operations
    # ------------------------------------------------------------------
    def basis_block(self, view: BatchView) -> np.ndarray:
        """chi_mu table of one view, ``(n_rows, n_cols)``, C-contiguous.

        Per-shell evaluation is independent of which other atoms are
        requested and which other points share the call, so a view's
        block is a *bitwise* row-and-column slice of the full table —
        the parity anchor that keeps every engine identical whichever
        source it reads from.
        """
        raise NotImplementedError

    def offer_block(self, view: BatchView, block: np.ndarray, seconds: float) -> None:
        """Take *view*'s chi *block*, evaluated elsewhere in *seconds*.

        Set-up work that evaluates the values anyway (the kinetic sweep)
        hands them over on the calling thread, so a backend that caches
        blocks need not evaluate them again.  The base backend keeps
        nothing.
        """

    def _run_phase(self, phase: str, elements: int, impl, *args):
        """Run one phase implementation under its span and profile row."""
        start = time.perf_counter()
        with obs_span(phase, category="backend", backend=self.name):
            out = impl(*args)
        self.profile.record(phase, elements, time.perf_counter() - start)
        return out

    def _grid_phase(self, phase: str, impl, arg, k: int = 1) -> np.ndarray:
        """One Sumup/H sweep over the views for *k* densities or
        potentials, priced by the view set: one call of ``k x`` its
        elements.

        Screening is charged here — once per pass, from the views'
        stats — so every engine, including ones that override the
        phase implementations, reports the same counters; unscreened
        runs stay all-zero.
        """
        views = self._require_bound().views
        out = self._run_phase(phase, k * views.elements, impl, arg)
        if views.screened:
            self.profile.screen_blocks_evaluated += views.stats.blocks_active
            self.profile.screen_blocks_skipped += (
                views.stats.blocks_relevant - views.stats.blocks_active
            )
        return out

    def density_on_grid(self, density_matrix) -> np.ndarray:
        """Pointwise density for one density matrix, array or :class:`Factored`
        (Sumup): ``(n_points,)``, or ``(n_points, m)`` for a Factored of m
        lefts against one right."""
        p = self._check_density_matrix(density_matrix)
        k = len(p.left) if isinstance(p, Factored) and p.left.ndim == 3 else 1
        return self._grid_phase("Sumup", self._density_impl, p, k)

    def potential_matrix(self, potential_values: np.ndarray) -> np.ndarray:
        """``<chi_mu | v | chi_nu>`` for a pointwise potential (H phase):
        ``(n_points,)`` gives one matrix, ``(n_points, k)`` k of them as
        ``(k, n_basis, n_basis)``, each view's block read once for all k."""
        v, wide = self._require_bound().grid.columns(potential_values, "potential samples")
        v = v if wide else v[None]
        out = self._grid_phase("H", self._potential_impl, v, len(v))
        return out if wide else out[0]

    def first_order_dm(
        self,
        h1: np.ndarray,
        inv_gaps: np.ndarray,
        c_occ: np.ndarray,
        c_virt: np.ndarray,
        f_occ: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(U, C^(1), P^(1))`` from a response Hamiltonian (DM phase)."""
        # The Sternheimer rotation is a dense C_virt^T h1 C_occ product
        # whatever the grid phases screened: n_basis**2 elements.
        elements = self._require_bound().basis.n_basis ** 2
        return self._run_phase(
            "DM", elements, self._dm_impl, h1, inv_gaps, c_occ, c_virt, f_occ
        )

    # ------------------------------------------------------------------
    # Shared implementations (view-ordered; overridable for devices)
    # ------------------------------------------------------------------
    def _density_impl(self, density) -> np.ndarray:
        """Sumup: each view's block times its rows of a :class:`Factored`
        density's ``[L | R]`` (or ``[L_1 | … | L_m | R]``), stacked once
        per sweep, or the quadratic form of its ``P`` sub-block, ``P``
        folded once per sweep.

        Identical view order and identical block math across every
        backend, so engines stay bit-exact with each other; points of
        batches without a view keep density exactly zero.  The views are
        walked by :func:`~repro.backends.sweep.ordered_sweep`: blocks on
        the calling thread, kernels there or on the sweep helper, rows
        scattered in view order.
        """
        builder = self._require_bound()
        factored = isinstance(density, Factored)
        wide = factored and density.left.ndim == 3
        if factored:
            k = density.left.shape[-1]
            lefts = list(density.left) if wide else [density.left]
            factors = np.hstack(lefts + ([] if density.right is None else [density.right]))
        else:
            lefts, upper, factors = [density], fold_upper(density), np.empty((0, 0))
        out = np.zeros((len(lefts), builder.grid.n_points))  # direction-major

        def kernel(view: BatchView, phi: np.ndarray) -> np.ndarray:
            with scratch((len(phi), max(phi.shape[1], factors.shape[1]))) as work:
                return (
                    factored_form_rows(phi, factors[view.cols], k, work) if factored
                    else quadratic_form_rows(phi, view.gather(upper, upper=True), work)[None]
                )

        def commit(view: BatchView, rows: np.ndarray) -> None:
            for out_j, rows_j in zip(out, rows):  # 1-D scatters: half a 2-D one's time
                out_j[view.point_indices] = rows_j

        views = builder.views
        ordered_sweep(views, views.elements, self.basis_block, kernel, commit)
        return out.T if wide else out[0]

    def _potential_impl(self, v: np.ndarray) -> np.ndarray:
        """H integration of k direction-major potentials ``(k, n_points)``:
        add each view's weighted Gram blocks at its columns, the view's
        block read once for all k.

        Matrix entries outside the views' atom-pair blocks stay exactly
        zero.  The blocks are exactly symmetric, so only their run pairs
        on and above the diagonal are added and the finished upper
        triangles are mirrored: half the scatter traffic, and results
        that are symmetric by construction.  Grams are added in view
        order whichever thread computed them (``ordered_sweep``).
        """
        builder = self._require_bound()
        wv = v * builder.grid.weights
        nb = builder.basis.n_basis
        acc = np.zeros((len(wv), nb, nb))

        def kernel(view: BatchView, phi: np.ndarray) -> list:
            with scratch(phi.shape) as work:
                return [weighted_gram(phi, w[view.point_indices], work) for w in wv]

        def commit(view: BatchView, grams: list) -> None:
            for acc_j, gram in zip(acc, grams):
                view.scatter_add(acc_j, gram, upper=True)

        views = builder.views
        ordered_sweep(views, views.elements, self.basis_block, kernel, commit)
        for acc_j in acc:
            mirror_upper(acc_j, out=acc_j)
        return acc

    def _dm_impl(
        self,
        h1: np.ndarray,
        inv_gaps: np.ndarray,
        c_occ: np.ndarray,
        c_virt: np.ndarray,
        f_occ: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return first_order_dm_dense(h1, inv_gaps, c_occ, c_virt, f_occ)

    # ------------------------------------------------------------------
    def _evaluate_block(self, view: BatchView) -> np.ndarray:
        """Evaluate one view's basis block for real (profiled).

        Only the view's atoms are evaluated and only its columns
        returned; see :meth:`basis_block` for why that is bitwise equal
        to slicing those columns out of a full evaluation.  The profile
        is charged what the view's batches are priced at — one call per
        member batch, each its own columns wide — like every other
        phase row.
        """
        start = time.perf_counter()
        phi = self._require_bound().evaluate_view(view)
        self._record_evaluation(view, time.perf_counter() - start)
        return phi

    def _record_evaluation(self, view: BatchView, seconds: float) -> None:
        """Charge one evaluation of *view*'s block to the ``basis`` row."""
        self.profile.record("basis", view.elements, seconds, len(view.batches))

    def __repr__(self) -> str:
        bound = "bound" if self.builder is not None else "unbound"
        return f"{type(self).__name__}(name={self.name!r}, {bound})"
