"""Delley-style multipole-expansion Hartree solver (Eqs. 8-9).

The electrostatic potential of a density sampled on the atom-centered
grid is obtained in three stages, exactly mirroring the FHI-aims
pipeline the paper optimizes:

1. **Multipole projection** — the Becke-partitioned density of each atom
   is projected on real spherical harmonics shell by shell, producing
   ``rho_multipole[atom][shell, lm]``.  (At scale, each row of this
   array is what the packed AllReduce of Section 3.2 synthesizes.)
2. **Radial Poisson solve** — per (atom, lm) channel, the radial
   potential is two cumulative integrals computed with the
   Adams-Moulton linear multistep quadrature (the loop that Section 4.4
   collapses), then splined: ``delta_v_hart_part_spl``.  Both are fixed
   linear maps of the moments, built once into one operator per (radial
   mesh, l): a call is one matmul per (species, l).
3. **Back-interpolation** — the total potential at any point is the sum
   of splined atom-centered partial potentials plus analytic multipole
   far fields (the producer/consumer kernel pair of Section 4.2).

Each stage is linear in the density, and everything but the density is
fixed by the geometry: :class:`MultipoleSolver` computes that half once
(the angular harmonics, the per-species radial operators, one
back-interpolation plan per atom) and applies it per call (DESIGN §5.1).
A call takes one density ``(n_points,)`` or k of them ``(n_points, k)``
(the CPSCF field directions); the k columns ride through every stage's
products as one more, direction-major, axis, so k = 1 makes the
one-density products and k = 3 as many calls as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.basis.spline import CubicSpline, SplineSystem
from repro.basis.ylm import harmonics_by_channel, n_lm, real_spherical_harmonics
from repro.errors import GridError
from repro.grids.atom_grid import IntegrationGrid
from repro.utils.scratch import scratch


def adams_moulton_cumulative(f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Cumulative integral with the 4th-order Adams-Moulton quadrature.

    Parameters
    ----------
    f:
        Integrand sampled on mesh nodes; shape ``(n, ...)``.
    df:
        ``ds/di`` mesh stretching at each node (same leading length), so
        the integral in the unit-step index variable is ``sum f * df``.

    Returns
    -------
    ``F`` with ``F[k] = int_{node 0}^{node k} f ds``; ``F[0] = 0``.

    The first two steps use 4-point cubic-exact startup formulas, then
    the 4-step Adams-Moulton corrector
    ``F[k] = F[k-1] + (9 g_k + 19 g_{k-1} - 5 g_{k-2} + g_{k-3}) / 24``
    with ``g = f * df`` — every step integrates cubics exactly on
    uniform meshes.
    """
    f = np.asarray(f, dtype=float)
    df = np.asarray(df, dtype=float)
    if f.shape[0] != df.shape[0]:
        raise ValueError("f and df must share their leading length")
    g = f * df.reshape(-1, *([1] * (f.ndim - 1)))
    out = np.zeros_like(g)
    n = g.shape[0]
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * (g[0] + g[1])
        return out
    if n == 3:
        out[1] = (5.0 * g[0] + 8.0 * g[1] - g[2]) / 12.0
        out[2] = out[1] + (5.0 * g[2] + 8.0 * g[1] - g[0]) / 12.0
        return out
    # Cubic-exact startup over the first four nodes.
    out[1] = (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3]) / 24.0
    out[2] = out[1] + (-g[0] + 13.0 * g[1] + 13.0 * g[2] - g[3]) / 24.0
    # F[k] = F[k-1] + term_k is a running sum: write the corrector terms,
    # then accumulate in place from F[2].  cumsum adds left to right, so
    # every F[k] sees the additions the step-by-step recurrence makes.
    out[3:] = (9.0 * g[3:] + 19.0 * g[2:-1] - 5.0 * g[1:-2] + g[:-3]) / 24.0
    np.cumsum(out[2:], axis=0, out=out[2:])
    return out


@dataclass
class MultipoleExpansion:
    """Per-atom multipole data of one density.

    Attributes
    ----------
    moments:
        ``rho_multipole`` — list over atoms of ``(n_shells, n_lm)``.
    potential_splines:
        ``delta_v_hart_part_spl`` — list over atoms of vector-valued
        radial splines of the partial potentials (``None`` until solved).
    far_moments:
        list over atoms of ``(n_lm,)`` multipole moments
        ``q_lm = int s^(l+2) rho_lm ds`` for the analytic far field.
    l_max:
        Highest multipole angular momentum.
    k:
        ``None`` for one density; for k densities each atom's moments are
        ``(k, n_shells, n_lm)``, its spline tables ``(n_shells, k, n_lm)``
        and its far moments ``(k, n_lm)``.
    """

    moments: List[np.ndarray]
    l_max: int
    potential_splines: Optional[List[CubicSpline]] = None
    far_moments: Optional[List[np.ndarray]] = None
    k: Optional[int] = None

    @property
    def rho_multipole_nbytes(self) -> int:
        """Total bytes of the rho_multipole arrays."""
        return int(sum(m.nbytes for m in self.moments))

    @property
    def potential_spline_nbytes(self) -> int:
        """Total bytes of the delta_v_hart_part_spl coefficient tables."""
        if self.potential_splines is None:
            return 0
        return int(sum(s.coefficient_nbytes for s in self.potential_splines))


def _radial_operator(system: SplineSystem, dr: np.ndarray, l: int) -> np.ndarray:
    """Stage 2 of one ``l`` channel as a ``(2n + 1, n)`` matrix: moments on
    the ``n`` shells of *system* -> spline values ``v``, their second
    derivatives ``m`` and the far-field moment, stacked as rows.  Column
    ``j`` is the two Adams-Moulton sweeps, the inner boundary and the
    tridiagonal solve applied to a unit moment on shell ``j``; a unit
    column's ``outer[-1] - outer`` is exactly 0 past its stencil, so the
    ``s^(1-l)``-amplified inner shells never cancel in rounding."""
    r = system.x[:, None]
    unit = np.eye(r.shape[0])
    inner = adams_moulton_cumulative(unit * r ** (l + 2.0), dr)
    # Inner boundary: density ~ constant below the first shell.
    inner[:, 0] += r[0, 0] ** (l + 3.0) / (l + 3.0)
    outer = adams_moulton_cumulative(unit * r ** (1.0 - l), dr)
    v = 4.0 * np.pi / (2 * l + 1) * (inner / r ** (l + 1.0) + (outer[-1] - outer) * r**l)
    return np.vstack([v, system.second_derivatives(v), inner[-1:]])


@dataclass(frozen=True)
class _MeshGroup:
    """Atoms sharing one radial mesh (one species) and what the mesh fixes."""

    atoms: Tuple[int, ...]
    rows: np.ndarray  # grid rows of the atoms' points, atom after atom
    system: SplineSystem  # knots = shell radii, Thomas factors
    operators: Tuple[np.ndarray, ...]  # per l, _radial_operator of the mesh


@dataclass(frozen=True)
class _AtomPlan:
    """Back-interpolation of one atom's partial potential at fixed points.

    Everything the consumer kernel needs that the density cannot change.
    The points inside the atom's radial mesh are held sorted by the
    radial interval they fall in, so each populated interval is one
    contiguous column run of the harmonics ``y_near`` and of the spline
    weights: a run multiplies its interval's four spline rows and
    nothing is gathered.  The remaining points carry the far-field
    factors ``pref * Y / r^(l+1)``.  The three tables are channel-major
    and C-contiguous.
    """

    near: np.ndarray  # int32 point indices, r <= outermost shell, by interval
    far: np.ndarray  # int32 point indices, the rest
    runs: Tuple[Tuple[int, int, int], ...]  # (interval, start, stop) along near
    y_near: np.ndarray  # (n_lm, n_near)
    tap_weights: np.ndarray  # (4, n_near), SplineSystem.weights
    far_table: np.ndarray  # (n_lm, n_far)

    @property
    def nbytes(self) -> int:
        return int(
            self.near.nbytes + self.far.nbytes + self.y_near.nbytes
            + self.tap_weights.nbytes + self.far_table.nbytes
        )


class MultipoleSolver:
    """Poisson solver bound to one structure + integration grid.

    Every density-independent quantity is computed once per solver: the
    angular harmonics and per-species radial operators in the constructor,
    and one back-interpolation plan per atom on its first use.  A call
    is then three small linear steps, so both the ground-state cycle and
    every CPSCF iteration pay only for what the density changes.
    """

    def __init__(self, grid: IntegrationGrid, l_max: int) -> None:
        if grid.partition_weights is None:
            grid.compute_partition_weights()
        self.grid = grid
        self.structure = grid.structure
        self.l_max = l_max
        self._n_lm = n_lm(l_max)

        # Per-l far-field prefactors 4 pi / (2l+1), expanded over lm channels.
        ls = np.concatenate(
            [np.full(2 * l + 1, l) for l in range(l_max + 1)]
        ).astype(float)
        self._pref = 4.0 * np.pi / (2.0 * ls + 1.0)

        # The angular rule is shared by all shells of all atoms; recover
        # it from the first atom's first shell block.
        first = grid.atom_slices[0]
        self._n_ang = (first.stop - first.start) // len(grid.shell_radii[0])
        ang_dirs = grid.points[: self._n_ang] - self.structure.coords[0]
        self._y_ang = real_spherical_harmonics(ang_dirs, l_max)  # (n_ang, n_lm)

        by_mesh: Dict[bytes, List[int]] = {}
        for a, r in enumerate(grid.shell_radii):
            by_mesh.setdefault(np.asarray(r, dtype=float).tobytes(), []).append(a)
        self._groups = [
            self._mesh_group(atoms) for atoms in by_mesh.values()
        ]
        self._system = {a: g.system for g in self._groups for a in g.atoms}

        # Per-atom back-interpolation plans for the grid's own points
        # (the consumer-kernel geometry), built lazily.
        self._plans: List[Optional[_AtomPlan]] = [None] * self.structure.n_atoms

    def _mesh_group(self, atoms: List[int]) -> _MeshGroup:
        r = self.grid.shell_radii[atoms[0]]  # (n_shells,)
        # dr: a finite-difference guess at the mesh Jacobian ds/di, and the
        # source of the far-field phantom monopole (ROADMAP 2: ≈ 4.4e-3 e
        # per atom at `minimal`); the analytic dr/di is computed, and
        # discarded, in grids/shells.radial_shells_for_species.
        system, dr = SplineSystem(r), np.gradient(r)
        return _MeshGroup(
            atoms=tuple(atoms),
            rows=np.concatenate([self.grid.points_of_atom(a) for a in atoms]),
            system=system,
            operators=tuple(_radial_operator(system, dr, l) for l in range(self.l_max + 1)),
        )

    @property
    def plan_nbytes(self) -> int:
        """Bytes held by the back-interpolation plans built so far."""
        return sum(p.nbytes for p in self._plans if p is not None)

    # ------------------------------------------------------------------
    # Stage 1: multipole projection
    # ------------------------------------------------------------------
    def expand(self, density_values: np.ndarray) -> MultipoleExpansion:
        """Project a grid-sampled density, ``(n_points,)`` or k of them as
        ``(n_points, k)``, onto ``rho_multipole``."""
        rho, wide = self.grid.columns(density_values, "density")
        # grid.angular_weights is the angular rule tiled over every shell.
        vals = rho * self.grid.partition_weights * self.grid.angular_weights
        moments: List[Optional[np.ndarray]] = [None] * self.structure.n_atoms
        for group in self._groups:
            # One batched matmul per species and all k densities:
            # (k * n_atoms, n_shells, n_ang) @ Y.
            n_shells = group.system.n_knots
            stacked = np.take(vals, group.rows, axis=-1).reshape(-1, n_shells, self._n_ang)
            stacked = stacked @ self._y_ang
            if wide:
                stacked = stacked.reshape(len(rho), len(group.atoms), n_shells, -1)
            for i, a in enumerate(group.atoms):
                moments[a] = stacked[:, i] if wide else stacked[i]  # (n_shells, n_lm)
        return MultipoleExpansion(moments=moments, l_max=self.l_max, k=len(rho) if wide else None)

    # ------------------------------------------------------------------
    # Stage 2: radial Poisson via Adams-Moulton
    # ------------------------------------------------------------------
    def solve(self, expansion: MultipoleExpansion) -> MultipoleExpansion:
        """Fill the partial-potential splines and far-field moments.

        The atoms of one species and the k densities are stacked as
        ``(n_shells, n_lm, k, n_atoms)`` columns, so each ``l`` is one
        product of the mesh's operator with the contiguous block of its
        ``2l+1`` channels of every density and atom.
        """
        n_atoms = self.structure.n_atoms
        splines: List[Optional[CubicSpline]] = [None] * n_atoms
        far: List[Optional[np.ndarray]] = [None] * n_atoms
        for group in self._groups:
            n, k = group.system.n_knots, expansion.k
            mom = [expansion.moments[a] for a in group.atoms]
            if k is None:
                mom = np.stack(mom, axis=2)  # (n, n_lm, atoms)
            else:
                mom = np.stack(mom, axis=3).transpose(1, 2, 0, 3)  # (n, n_lm, k, atoms)
            width = mom[0, 0].size
            mom = mom.reshape(n, -1)
            out = np.empty((2 * n + 1, mom.shape[1]))  # rows v, m, far
            for l, op in enumerate(group.operators):
                cols = slice(l * l * width, (l + 1) ** 2 * width)
                np.matmul(op, mom[:, cols], out=out[:, cols])
            if k is None:
                out = out.reshape(2 * n + 1, -1, len(group.atoms))
            else:  # (rows, k, n_lm, atoms): each atom's tables direction-major
                out = out.reshape(2 * n + 1, -1, k, len(group.atoms)).transpose(0, 2, 1, 3)
            for i, a in enumerate(group.atoms):
                splines[a] = CubicSpline.from_tables(group.system, out[:n, ..., i], out[n:-1, ..., i])
                far[a] = out[-1, ..., i]
        expansion.potential_splines = splines
        expansion.far_moments = far
        return expansion

    # ------------------------------------------------------------------
    # Stage 3: back-interpolation (the consumer kernel)
    # ------------------------------------------------------------------
    def _build_plan(self, atom: int, points: np.ndarray) -> _AtomPlan:
        """Everything about *points* as seen from one atom, as a plan."""
        system = self._system[atom]
        d = points - self.structure.coords[atom]
        r = np.linalg.norm(d, axis=1)
        inside = r <= system.x[-1]
        near, far = np.flatnonzero(inside), np.flatnonzero(~inside)
        near = near[np.argsort(system.locate(r[near])[0], kind="stable")]
        idx, w = system.weights(r[near])  # idx is non-decreasing now
        intervals, starts = np.unique(idx, return_index=True)
        stops = starts[1:].tolist() + [idx.shape[0]]

        y = harmonics_by_channel(d, self.l_max)  # (n_lm, n_points)
        # np.take, not y[:, far]: an advanced index on the last axis does
        # not come out C-contiguous, and the products then read strided.
        far_table = np.take(y, far, axis=1)
        inv_r = 1.0 / r[far]
        power = inv_r  # 1 / r^(l+1): one more factor per l, no pow
        for l in range(self.l_max + 1):
            far_table[l * l : (l + 1) ** 2] *= power
            power = power * inv_r
        far_table *= self._pref[:, None]
        return _AtomPlan(
            near=near.astype(np.int32),
            far=far.astype(np.int32),
            runs=tuple(zip(intervals.tolist(), starts.tolist(), stops)),
            y_near=np.take(y, near, axis=1),
            tap_weights=w,
            far_table=far_table,
        )

    def _plan(self, atom: int) -> _AtomPlan:
        if self._plans[atom] is None:
            self._plans[atom] = self._build_plan(atom, self.grid.points)
        return self._plans[atom]

    def evaluate(
        self,
        expansion: MultipoleExpansion,
        points: Optional[np.ndarray] = None,
        atoms: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Total Hartree potential at grid points (default) or any points.

        Sums splined partial potentials inside each atom's radial mesh
        and the analytic ``q_lm / r^(l+1)`` far field outside.  Grid
        points use the solver's cached plans; other *points* get a
        throwaway plan from the same builder.  A k-wide expansion gives
        ``(n_points, k)``: each run product is ``(4k, n_lm)`` rows, one
        call for all k, and each density is accumulated on its own.
        """
        if expansion.potential_splines is None:
            raise GridError("expansion not solved; call solve() first")
        if points is not None:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            if points.shape[1:] != (3,) or not np.isfinite(points).all():
                raise GridError(f"points must be finite (n, 3), got shape {points.shape}")
        k = expansion.k or 1
        v = np.zeros((k, self.grid.n_points if points is None else points.shape[0]))
        v_rows = list(v)  # one accumulator per density
        step, height = 2 * k, 4 * k  # table rows per knot, per interval
        atom_iter = range(self.structure.n_atoms) if atoms is None else atoms
        for a in atom_iter:
            plan = self._plan(a) if points is None else self._build_plan(a, points)
            spline = expansion.potential_splines[a]
            # Rows y_0, m_0, y_1, m_1, ... each k densities deep: interval i
            # reads the 4k rows from 2ik.
            table = np.stack([spline.y, spline.m], axis=1).reshape(-1, self._n_lm)
            # Nothing of order n_near x n_lm is allocated per call: the
            # run products go to the process's scratch block.
            with scratch((height, plan.near.shape[0])) as z:
                for i, lo, hi in plan.runs:
                    np.matmul(
                        table[step * i : step * i + height], plan.y_near[:, lo:hi],
                        out=z[:, lo:hi],
                    )
                taps = z.reshape(4, k, -1)
                taps *= plan.tap_weights[:, None]
                taps[:2] += taps[2:]  # the four terms summed in place, pairwise
                taps[0] += taps[1]
                # No point repeats in a plan, so this is v_j[near] += taps[0, j];
                # ufunc.at does it in half the time for int32 indices.
                for v_j, near_j in zip(v_rows, taps[0]):
                    np.add.at(v_j, plan.near, near_j)
            far = (expansion.far_moments[a] @ plan.far_table).reshape(k, -1)
            for v_j, far_j in zip(v_rows, far):
                np.add.at(v_j, plan.far, far_j)
        return v.T if expansion.k is not None else v[0]

    def hartree_potential(self, density_values: np.ndarray) -> np.ndarray:
        """Convenience: density -> potential at all grid points, in the
        density's shape, ``(n_points,)`` or ``(n_points, k)``."""
        return self.evaluate(self.solve(self.expand(density_values)))
