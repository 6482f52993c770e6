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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

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
from repro.obs.tracer import obs_event, trace_context
from repro.runtime.faults import CycleFaultInjector
from repro.utils import drain
from repro.utils.timing import PhaseTimer


@dataclass
class ResponseResult:
    """Converged first-order response for one field direction."""

    direction: int
    response_density_matrix: np.ndarray  # P^(1)
    response_orbitals: np.ndarray  # C^(1), occupied columns
    response_density: np.ndarray  # n^(1) on the grid
    response_potential: np.ndarray  # v^(1)_es,tot + v^(1)_xc on the grid
    iterations: int
    residual: float
    restarts: int = 0  # cycles redone after injected faults

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
        fault_injector: Optional[CycleFaultInjector] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        verifier: Optional["Verifier"] = None,
    ) -> None:
        self.gs = ground_state
        self.settings = settings or CPSCFSettings()
        self.timer = timer or PhaseTimer()
        self.fault_injector = fault_injector
        self.verifier = verifier
        if backend is None:
            # Share the ground state's backend (and its profile), so SCF
            # and CPSCF run the same execution engine end to end.
            self.backend = ground_state.builder.backend
        else:
            from repro.backends.registry import resolve_backend

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

    def solve_direction(self, direction: int) -> ResponseResult:
        """Run the CPSCF loop for one Cartesian field direction."""
        return drain(self.iter_direction(direction))

    def iter_direction(self, direction: int):
        """Generator form of :meth:`solve_direction`: one cycle per ``next()``.

        Exactly :meth:`solve_direction`'s loop with a yield at every
        cycle boundary, so a fleet driver can interleave CPSCF cycles
        of different molecules without touching any single molecule's
        floating-point sequence.  The converged :class:`ResponseResult`
        is the generator's return value (``StopIteration.value``).
        """
        if direction not in (0, 1, 2):
            raise ValueError(f"direction must be 0, 1 or 2, got {direction}")
        gs = self.gs
        cfg = self.settings
        h1_ext = -gs.dipoles[direction]

        # P1 = X C_occ^T + C_occ X^T, X = C1 f_occ mixed alongside (DESIGN §8)
        p1 = np.zeros_like(gs.density_matrix)
        x1 = np.zeros_like(self._c_occ)
        c1 = np.zeros_like(self._c_occ)
        n1 = np.zeros_like(gs.density)
        v1_total = np.zeros_like(gs.density)
        residual = np.inf
        restarts = 0
        attempt = 0

        iteration = 1
        while iteration <= cfg.max_iterations:
            # Checkpoint of the last converged cycle; an injected fault
            # discards this cycle's work and restarts from here.
            checkpoint = p1.copy(), x1.copy()
            with trace_context(
                backend=self.backend.name,
                loop="cpscf",
                direction=direction,
                cycle=iteration,
            ):
                with self.timer.phase("Sumup"):
                    n1 = self.backend.density_on_grid(Factored(x1, self._c_occ))
                # Rho is the whole response potential, H the integration
                # alone: a phase that wraps one backend call and nothing
                # else stays comparable with a span of that call from
                # outside, however short the call (benchmarks/e2e
                # reconciles the two within 5 % on H2).
                with self.timer.phase("Rho"):
                    v1_h = gs.solver.hartree_potential(n1)
                    v1_xc = self._fxc * n1
                    v1_total = v1_h + v1_xc
                with self.timer.phase("H"):
                    v1_matrix = self.backend.potential_matrix(v1_total)
                h1 = h1_ext + v1_matrix
                with self.timer.phase("DM"):
                    _, c1, p1_new = self._first_order_dm(h1)

            if self.fault_injector is not None and self.fault_injector.cycle_fault(
                f"cpscf{direction}", iteration, attempt
            ):
                obs_event(
                    "cycle_fault", category="fault",
                    site=f"cpscf{direction}[{iteration}]", attempt=attempt,
                )
                p1, x1 = checkpoint  # restore: redo this cycle from scratch
                restarts += 1
                attempt += 1
                yield iteration
                continue
            attempt = 0

            residual = float(np.abs(p1_new - p1).max())
            p1 = p1 + cfg.mixing_factor * (p1_new - p1)
            x1 = x1 + cfg.mixing_factor * (c1 * self._f_occ - x1)
            if residual < cfg.response_tolerance:
                n1 = self.backend.density_on_grid(Factored(x1, self._c_occ))
                if self.verifier is not None:
                    self.verifier.run_phase(
                        "cpscf", gs=gs, p1=p1, h1=h1, direction=direction
                    )
                return ResponseResult(
                    direction=direction,
                    response_density_matrix=p1,
                    response_orbitals=c1,
                    response_density=n1,
                    response_potential=v1_total,
                    iterations=iteration,
                    residual=residual,
                    restarts=restarts,
                )
            iteration += 1
            yield iteration

        raise CPSCFConvergenceError(
            f"CPSCF direction {direction} did not converge in "
            f"{cfg.max_iterations} iterations (residual {residual:.2e})",
            iterations=cfg.max_iterations,
            residual=residual,
        )

    def solve_all(self) -> List[ResponseResult]:
        """Responses for all three field directions."""
        return [self.solve_direction(j) for j in range(3)]
