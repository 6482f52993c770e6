"""The ground-state Kohn-Sham self-consistency cycle (Eqs. 1-6).

:class:`SCFDriver` assembles the whole substrate — basis, grid,
multipole Hartree solver, matrix builder — and iterates density ->
potential -> Hamiltonian -> orbitals to convergence, with DIIS
acceleration.  A homogeneous external electric field can be applied,
which is how the finite-difference polarizability reference for the
DFPT validation is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.atoms.structure import Structure, electrons_at_charge, reject_coincident_nuclei
from repro.backends.base import Factored

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import ExecutionBackend
    from repro.verify.invariants import Verifier
from repro.basis.basis_set import BasisSet
from repro.config import RunSettings, get_settings
from repro.dft.hamiltonian import MatrixBuilder, build_substrate
from repro.dft.hartree import MultipoleSolver
from repro.dft.mixing import PulayMixer
from repro.dft.xc import lda_exchange_correlation
from repro.errors import SCFConvergenceError
from repro.grids.atom_grid import IntegrationGrid
from repro.obs.tracer import trace_context
from repro.utils import drain
from repro.utils.linalg import (
    GeneralizedEigensolver,
    density_matrix_from_orbitals,
)
from repro.utils.timing import PhaseTimer


@dataclass
class GroundState:
    """Converged ground-state data consumed by the DFPT cycle."""

    structure: Structure
    basis: BasisSet
    grid: IntegrationGrid
    builder: MatrixBuilder
    solver: MultipoleSolver
    overlap: np.ndarray
    kinetic: np.ndarray
    dipoles: np.ndarray  # (3, n, n)
    eigenvalues: np.ndarray
    orbitals: np.ndarray
    occupations: np.ndarray
    density_matrix: np.ndarray
    density: np.ndarray  # pointwise n0
    total_energy: float
    energy_components: Dict[str, float] = field(default_factory=dict)
    iterations: int = 0

    @property
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.occupations > 0.0))

    def dipole_moment(self) -> np.ndarray:
        """mu_I = -Tr(P D_I) + sum_a Z_a R_a,I (atomic units, e*Bohr)."""
        electronic = -np.array(
            [np.sum(self.density_matrix * self.dipoles[j]) for j in range(3)]
        )
        nuclear = self.structure.nuclear_charges @ self.structure.coords
        return electronic + nuclear


class SCFDriver:
    """Build the substrate once, then run SCF cycles (optionally in a field)."""

    def __init__(
        self,
        structure: Structure,
        settings: Optional[RunSettings] = None,
        charge: int = 0,
        timer: Optional[PhaseTimer] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        verifier: Optional["Verifier"] = None,
        basis: Optional[BasisSet] = None,
        grid: Optional[IntegrationGrid] = None,
        batches=None,
    ) -> None:
        self.structure = structure
        self.settings = settings or get_settings("light")
        self.charge = charge
        self.timer = timer or PhaseTimer()
        if verifier is None:
            from repro.verify.invariants import Verifier as _Verifier

            verifier = _Verifier.from_level(self.settings.verify)
        self.verifier = verifier

        n_electrons = electrons_at_charge(structure, charge)
        if n_electrons % 2 != 0:
            raise SCFConvergenceError(
                f"restricted closed-shell SCF needs an even electron count, "
                f"got {n_electrons}; adjust `charge`",
                iterations=0,
                residual=0.0,
            )
        self.n_electrons = n_electrons
        reject_coincident_nuclei(structure)

        # A fleet wave may inject a shared basis/grid/batch substrate
        # (built once per distinct geometry); construction is identical
        # to building them here, so results are unaffected.
        if basis is None or grid is None:
            own = build_substrate(structure, self.settings.grids)
            if basis is None:
                basis = own.basis
            if grid is None:  # the batches index the grid they were cut from
                grid, batches = own.grid, own.batches
        self.basis = basis
        self.grid = grid
        self.builder = MatrixBuilder(
            self.basis,
            self.grid,
            batches=batches,
            backend=backend,
            screening_threshold=self.settings.screening_threshold,
        )
        self.backend = self.builder.backend
        self.solver = MultipoleSolver(self.grid, self.settings.l_max_hartree)

        with trace_context(backend=self.backend.name, loop="scf"), \
                self.timer.phase("integrals"):
            # T first: its sweep fills the block cache, so one k = 5 H
            # sweep over cached blocks gives S, V_ext and D (DESIGN §5.2).
            self._t = self.builder.kinetic()
            v_ext = self.builder.external_potential()
            setup = self.builder.potential_matrix(
                np.column_stack([np.ones_like(v_ext), v_ext, self.grid.points])
            )
            self._s, self._v_ext, self._dipoles = setup[0], setup[1], setup[2:]

        # S is constant over the cycles: orthogonalized once per driver.
        self._eigensolver = GeneralizedEigensolver(self._s)
        self._e_nn = self._nuclear_repulsion()

        if self.verifier is not None:
            self.verifier.run_phase(
                "integrals",
                overlap=self._s,
                dipoles=self._dipoles,
                basis=self.basis,
                grid=self.grid,
                batches=self.builder.batches,
            )

    def _nuclear_repulsion(self) -> float:
        z = self.structure.nuclear_charges
        coords = self.structure.coords
        e = 0.0
        for i in range(len(z)):
            r = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
            e += float(np.sum(z[i] * z[i + 1 :] / r))
        return e

    def _occupations(self, n_states: int) -> np.ndarray:
        n_occ = self.n_electrons // 2
        if n_occ > n_states:
            raise SCFConvergenceError(
                f"basis too small: {n_states} states for {n_occ} occupied orbitals",
                iterations=0,
                residual=0.0,
            )
        f = np.zeros(n_states)
        f[:n_occ] = 2.0
        return f

    def run(self, external_field: Optional[np.ndarray] = None) -> GroundState:
        """Iterate to self-consistency; returns the converged state.

        Parameters
        ----------
        external_field:
            Optional homogeneous field xi (3-vector).  Adds the
            perturbation ``-xi . r`` of Eq. (11) to the Hamiltonian —
            used by finite-difference polarizability references.
        """
        return drain(self.iter_cycles(external_field))

    def iter_cycles(self, external_field: Optional[np.ndarray] = None):
        """Generator form of :meth:`run`: one SCF cycle per ``next()``.

        The body is exactly :meth:`run`'s loop — same phase order, same
        mixer pushes — with a yield at every cycle boundary, so a caller
        can time each cycle (``benchmarks/e2e`` does).  The converged
        :class:`GroundState` is the generator's return value
        (``StopIteration.value``).
        """
        scf = self.settings.scf
        h_field = np.zeros_like(self._s)
        if external_field is not None:
            xi = np.asarray(external_field, dtype=float)
            for j in range(3):
                if xi[j] != 0.0:
                    h_field -= xi[j] * self._dipoles[j]

        # Initial guess: core Hamiltonian.
        h_core = self._t + self._v_ext + h_field
        eps, c = self._eigensolver.solve(h_core)
        f = self._occupations(eps.shape[0])
        p = density_matrix_from_orbitals(c, f)
        occupied = Factored.occupied(c, f)  # Sumup's P = L L^T (DESIGN §8)

        mixer = PulayMixer(history=scf.pulay_history, linear_factor=scf.mixing_factor)
        e_old = np.inf
        residual_norm = np.inf
        history = []  # per cycle, for the error if the loop runs out
        w = self.grid.weights

        iteration = 1
        while iteration <= scf.max_iterations:
            with trace_context(
                backend=self.backend.name, loop="scf", cycle=iteration
            ):
                with self.timer.phase("density"):
                    n_values = self.backend.density_on_grid(occupied)
                with self.timer.phase("hartree"):
                    v_h_values = self.solver.hartree_potential(n_values)
                with self.timer.phase("xc"):
                    xc = lda_exchange_correlation(n_values)
                    v_eff_values = v_h_values + xc.vxc
                # The phase wraps the backend call alone (see the CPSCF
                # loop's note); assembling h is three n_basis^2 adds.
                with self.timer.phase("hamiltonian"):
                    v_eff = self.backend.potential_matrix(v_eff_values)
                h = self._t + self._v_ext + v_eff + h_field

                # DIIS on the Fock matrix with commutator residual.
                commutator = h @ p @ self._s - self._s @ p @ h
                residual_norm = float(np.abs(commutator).max())
                h_mixed = mixer.push(h, commutator)

                with self.timer.phase("eigensolver"):
                    eps, c = self._eigensolver.solve(h_mixed)
            f = self._occupations(eps.shape[0])
            p_new = density_matrix_from_orbitals(c, f)

            # Energy from the *unmixed* Hamiltonian ingredients.
            e_kin = float(np.sum(p * self._t))
            e_ext = float(np.sum(p * self._v_ext))
            e_h = 0.5 * float(np.sum(w * n_values * v_h_values))
            e_xc = float(np.sum(w * n_values * xc.exc))
            e_total = e_kin + e_ext + e_h + e_xc + self._e_nn
            if external_field is not None:
                e_total -= float(np.sum((p * h_field)))  # note: h_field = -xi.D

            history.append({"residual": residual_norm, "energy": e_total})
            delta_e = abs(e_total - e_old)
            delta_p = float(np.abs(p_new - p).max())
            e_old = e_total
            p, occupied = p_new, Factored.occupied(c, f)

            if delta_e < scf.energy_tolerance and delta_p < scf.density_tolerance:
                n_values = self.backend.density_on_grid(occupied)
                gs = GroundState(
                    structure=self.structure,
                    basis=self.basis,
                    grid=self.grid,
                    builder=self.builder,
                    solver=self.solver,
                    overlap=self._s,
                    kinetic=self._t,
                    dipoles=self._dipoles,
                    eigenvalues=eps,
                    orbitals=c,
                    occupations=f,
                    density_matrix=p,
                    density=n_values,
                    total_energy=e_total,
                    energy_components={
                        "kinetic": e_kin,
                        "external": e_ext,
                        "hartree": e_h,
                        "xc": e_xc,
                        "nuclear": self._e_nn,
                    },
                    iterations=iteration,
                )
                if self.verifier is not None:
                    self.verifier.run_phase(
                        "scf",
                        gs=gs,
                        hamiltonian=h,
                        h_static=self._t + self._v_ext + h_field,
                        n_electrons=self.n_electrons,
                    )
                return gs
            iteration += 1
            yield iteration

        raise SCFConvergenceError(
            f"SCF did not converge in {scf.max_iterations} iterations "
            f"(last residual {residual_norm:.2e})",
            iterations=scf.max_iterations,
            residual=residual_norm,
            history=history,
        )
