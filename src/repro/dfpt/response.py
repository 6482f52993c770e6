"""The coupled-perturbed SCF (CPSCF) cycle of Fig. 1.

For a unit electric field along direction J the bare perturbation is
``h^(1) = -r_J`` (Eq. 11).  Each cycle:

* **DM phase** — first-order coefficients from the finite-basis
  Sternheimer solution ``U_ai = H^(1)_ai / (eps_i - eps_a)`` and the
  response density matrix P^(1) of Eq. (7);
* **Sumup phase** — response density on the grid (Eq. 8);
* **Rho phase** — response electrostatic potential via the multipole
  Poisson solver (Eq. 9);
* **H phase** — response Hamiltonian (Eq. 10) including the xc kernel
  term of Eq. (12);

iterated with linear mixing until the response density matrix is
stationary.  Phase names deliberately match the paper's artifact
(``DM``, ``Sumup``, ``Rho``, ``H``).

The field directions are independent problems on one ground state, so
they run as one block (:meth:`DFPTSolver.iter_directions`): a cycle makes
one Sumup, one Rho and one H call k directions wide through the same
seams — each view's basis block and the Hartree operators are read once
for all k — and k DM calls.  Each direction keeps its own mixing,
residual, convergence test and iteration count, and leaves the block when
it converges; one direction is the block of one.  This is the host form
of the paper's horizontal fusion (§1, item 3): independent work sharing
one device becomes one launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import Factored
from repro.config import CPSCFSettings
from repro.constants import EIGENVALUE_GAP_FLOOR
from repro.dft.scf import GroundState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import ExecutionBackend
    from repro.verify.invariants import Verifier
from repro.dft.xc import lda_xc_kernel
from repro.errors import CPSCFConvergenceError
from repro.obs.tracer import trace_context
from repro.utils import drain
from repro.utils.timing import PhaseTimer


@dataclass
class ResponseResult:
    """Converged first-order response for one field direction."""

    direction: int
    response_density_matrix: np.ndarray  # P^(1)
    response_density: np.ndarray  # n^(1) on the grid
    iterations: int
    residual: float

    def polarizability_column(self, dipoles: np.ndarray) -> np.ndarray:
        """alpha_{I, J=direction} = Tr(P^(1) D_I) = int r_I n^(1) (Eq. 13).

        The paper's convention: the perturbation is ``-r_J`` (Eq. 11)
        and alpha is the response of ``int r_I n`` — both signs absorb
        the electron charge, so the diagonal comes out positive.
        """
        return np.array(
            [float(np.sum(self.response_density_matrix * dipoles[i])) for i in range(3)]
        )


class DFPTSolver:
    """CPSCF solver bound to one converged ground state."""

    def __init__(
        self,
        ground_state: GroundState,
        settings: Optional[CPSCFSettings] = None,
        timer: Optional[PhaseTimer] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        verifier: Optional["Verifier"] = None,
    ) -> None:
        self.gs = ground_state
        self.settings = settings or CPSCFSettings()
        self.timer = timer or PhaseTimer()
        self.verifier = verifier
        if backend is None:
            # Share the ground state's backend (and its profile), so SCF
            # and CPSCF run the same execution engine end to end.
            self.backend = ground_state.builder.backend
        else:
            from repro.backends.batched import resolve_backend

            self.backend = resolve_backend(backend, ground_state.builder)
        # The xc kernel is a ground-state property; compute it once.
        self._fxc = lda_xc_kernel(ground_state.density)

        occ_mask = ground_state.occupations > 0.0
        self._c_occ = ground_state.orbitals[:, occ_mask]
        self._c_virt = ground_state.orbitals[:, ~occ_mask]
        self._f_occ = ground_state.occupations[occ_mask]
        eps = ground_state.eigenvalues
        self._eps_occ = eps[occ_mask]
        self._eps_virt = eps[~occ_mask]
        if self._c_virt.shape[1] == 0:
            raise CPSCFConvergenceError(
                "no virtual orbitals: the basis offers no response freedom",
                iterations=0,
                residual=0.0,
            )
        # Gap denominators eps_i - eps_a (occupied minus virtual): (n_virt, n_occ).
        gaps = self._eps_occ[None, :] - self._eps_virt[:, None]
        small = np.abs(gaps) < EIGENVALUE_GAP_FLOOR
        if np.any(small):
            gaps = np.where(small, -EIGENVALUE_GAP_FLOOR, gaps)
        self._inv_gaps = 1.0 / gaps

    # ------------------------------------------------------------------
    def _first_order_dm(
        self, h1: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """DM phase: U_ai, C^(1) and P^(1) from a response Hamiltonian."""
        return self.backend.first_order_dm(
            h1, self._inv_gaps, self._c_occ, self._c_virt, self._f_occ
        )

    def _block_cycle(
        self, x1: np.ndarray, h1_ext: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One CPSCF cycle of a block, one row of *x1* per direction:
        ``(h1, C1, P1_new)``, each ``(k, …)``.  Only these outlive the
        call, so a generator suspended between cycles keeps no k-wide
        grid temporary alive."""
        factors = Factored(x1, self._c_occ)
        with self.timer.phase("Sumup"):
            n1 = self.backend.density_on_grid(factors)
        # Rho is the whole response potential, H the integration
        # alone: a phase that wraps one backend call and nothing
        # else stays comparable with a span of that call from
        # outside, however short the call (benchmarks/e2e
        # reconciles the two within 5 % on H2).
        with self.timer.phase("Rho"):
            v1_total = self.gs.solver.hartree_potential(n1)
            v1_total += self._fxc[:, None] * n1
        with self.timer.phase("H"):
            v1_matrix = self.backend.potential_matrix(v1_total)
        h1 = h1_ext + v1_matrix
        with self.timer.phase("DM"):
            dms = [self._first_order_dm(h) for h in h1]
        return h1, np.stack([c for _, c, _ in dms]), np.stack([p for _, _, p in dms])

    def solve_direction(self, direction: int) -> ResponseResult:
        """Run the CPSCF loop for one Cartesian field direction."""
        return drain(self.iter_direction(direction))

    def iter_direction(self, direction: int):
        """Generator form of :meth:`solve_direction`: :meth:`iter_directions`
        of the one direction, whose :class:`ResponseResult` is the return
        value (``StopIteration.value``)."""
        (result,) = yield from self.iter_directions((direction,))
        return result

    def iter_directions(self, directions: Sequence[int]):
        """The CPSCF loop for a block of field directions, one cycle of the
        whole block per ``next()``.

        Every cycle makes one k-wide Sumup, Rho and H call for the k
        directions still active and k DM calls, so the block shares each
        view's basis block and the Hartree operators; every direction's
        floating-point sequence is otherwise its own, and a direction
        leaves the block when its own residual converges.  The converged
        results, in the order of *directions*, are the generator's return
        value.
        """
        directions = checked_directions(directions)
        gs = self.gs
        cfg = self.settings
        active = list(directions)
        h1_ext = -gs.dipoles[active]

        # P1 = X C_occ^T + C_occ X^T, X = C1 f_occ mixed alongside (DESIGN §8);
        # one row per active direction.
        p1 = np.zeros((len(active),) + gs.density_matrix.shape)
        x1 = np.zeros((len(active),) + self._c_occ.shape)
        residual = dict.fromkeys(active, np.inf)
        results: Dict[int, ResponseResult] = {}

        iteration = 1
        while iteration <= cfg.max_iterations:
            with trace_context(
                backend=self.backend.name,
                loop="cpscf",
                directions=list(active),
                cycle=iteration,
            ):
                h1, c1, p1_new = self._block_cycle(x1, h1_ext)

            for row, j in enumerate(active):
                residual[j] = float(np.abs(p1_new[row] - p1[row]).max())
            p1 = p1 + cfg.mixing_factor * (p1_new - p1)
            x1 = x1 + cfg.mixing_factor * (c1 * self._f_occ - x1)
            done = [row for row, j in enumerate(active) if residual[j] < cfg.response_tolerance]
            if done:
                n1 = self.backend.density_on_grid(Factored(x1[done], self._c_occ)).T
                for col, row in enumerate(done):
                    j = active[row]
                    if self.verifier is not None:
                        self.verifier.run_phase(
                            "cpscf", gs=gs, p1=p1[row], h1=h1[row], direction=j
                        )
                    results[j] = ResponseResult(
                        direction=j,
                        response_density_matrix=p1[row],
                        response_density=np.ascontiguousarray(n1[col]),
                        iterations=iteration,
                        residual=residual[j],
                    )
                keep = [row for row in range(len(active)) if row not in done]
                if not keep:
                    return [results[j] for j in directions]
                active = [active[row] for row in keep]
                p1, x1, h1_ext = p1[keep], x1[keep], h1_ext[keep]
            iteration += 1
            yield iteration

        first = active[0]
        raise CPSCFConvergenceError(
            f"CPSCF direction {first} did not converge in "
            f"{cfg.max_iterations} iterations (residual {residual[first]:.2e})",
            iterations=cfg.max_iterations,
            residual=residual[first],
        )

    def solve_all(self) -> List[ResponseResult]:
        """Responses for all three field directions, x, y, z, solved as one
        block (:meth:`iter_directions`): one k-wide Sumup, Rho and H call
        per cycle, each direction converging on its own test."""
        return drain(self.iter_directions((0, 1, 2)))


def checked_directions(directions: Sequence[int]) -> Tuple[int, ...]:
    """*directions* as a tuple of distinct Cartesian axes 0, 1, 2.

    Booleans and floats are refused even where they compare equal to an
    axis (``True == 1``, ``1.0 == 1``): they would index the dipole
    matrices as a mask or fail deep inside numpy.
    """
    try:
        dirs = tuple(directions)
    except TypeError:
        raise ValueError(f"directions must be a sequence of 0, 1, 2, got {directions!r}") from None
    bad = [
        d for d in dirs
        if isinstance(d, (bool, np.bool_))
        or not isinstance(d, (int, np.integer))
        or d not in (0, 1, 2)
    ]
    if not dirs or bad or len(set(dirs)) != len(dirs):
        raise ValueError(
            f"directions must be distinct field axes 0, 1, 2 (at least one), "
            f"got {directions!r}"
        )
    return tuple(int(d) for d in dirs)
