"""Structure-wide NAO basis: construction, indexing and grid evaluation.

A :class:`BasisSet` flattens the per-atom shells of Eq. (4) into a single
index ``mu`` and evaluates ``chi_mu`` (and gradients) at arbitrary point
batches with cutoff screening — the primitive underneath every grid
integral in the DFT/DFPT pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atoms.structure import Structure
from repro.basis.radial import LogRadialGrid
from repro.basis.sets import RadialShell, light_shells, radial_function
from repro.basis.solid_harmonics import solid_harmonics, solid_harmonics_with_gradients
from repro.basis.spline import CubicSpline
from repro.errors import BasisError

#: Knots for tabulating species radial functions.
_RADIAL_KNOTS: int = 320

#: Radial samples used when locating a shell's screened effective radius.
_SCREEN_SAMPLES: int = 512


def effective_shell_radius(
    g_spline: CubicSpline,
    cutoff: float,
    l: int,
    threshold: float,
    samples: int = _SCREEN_SAMPLES,
) -> float:
    """Largest radius where ``|g(r)| * max(r, 1)^l`` still reaches *threshold*.

    The amplitude proxy bounds ``|chi_mu| = |g(r)| |S_lm|`` up to an
    l-dependent constant (solid harmonics grow like ``r^l``), so a batch
    farther than this radius (plus the batch's bounding radius) sees only
    sub-threshold values of the shell's functions.  Monotone
    non-increasing in the threshold by construction: raising it can only
    shrink the set of surviving sample radii.  ``threshold <= 0`` returns
    the full cutoff (screening disabled).
    """
    if threshold <= 0.0:
        return float(cutoff)
    r = np.linspace(0.0, float(cutoff), samples)
    amp = np.abs(g_spline(r)) * np.maximum(r, 1.0) ** l
    above = np.nonzero(amp >= threshold)[0]
    return float(r[above[-1]]) if above.size else 0.0


@dataclass(frozen=True)
class BasisFunction:
    """One atom-centered orbital chi_mu = g_l(|r-R|) S_lm(r-R)."""

    index: int
    atom: int
    l: int
    m: int
    shell_label: str
    cutoff: float


#: One species shell: ``(shell, spline of g_l, cutoff radius)``.
_Shell = Tuple[RadialShell, CubicSpline, float]


@dataclass(frozen=True)
class _SpeciesTable:
    """Every shell of one species, stacked for one-lookup evaluation.

    The shells of a species share one radial mesh, so their tables sit
    side by side on one :class:`~repro.basis.spline.SplineSystem` and a
    single interval lookup per (point, atom) serves them all.
    """

    shells: List[_Shell]
    atoms: np.ndarray  # atoms of this species, ascending
    first_cols: np.ndarray  # each of those atoms' first basis column
    radial: CubicSpline  # (n_knots, n_shells) value / second-derivative tables
    cutoffs: np.ndarray  # (n_shells,)
    l_max: int
    shell_of_col: np.ndarray  # per function of one atom: its shell ...
    lm_of_col: np.ndarray  # ... and its S_lm column, l*l + l + m


class BasisSet:
    """All NAO basis functions of one structure.

    Built via :func:`build_basis` from the shells of each species present;
    evaluation is one array program per species (DESIGN §5.2), screened
    by each shell's cutoff radius.
    """

    def __init__(self, structure: Structure, species: Dict[str, List[_Shell]]) -> None:
        self.structure = structure
        self.functions: List[BasisFunction] = []
        for atom, symbol in enumerate(structure.symbols):
            for shell, _, cutoff in species[symbol]:
                for m in range(-shell.l, shell.l + 1):
                    self.functions.append(
                        BasisFunction(
                            len(self.functions), atom, shell.l, m, shell.label, cutoff
                        )
                    )
        self.n_basis = len(self.functions)
        self.function_atoms = np.array([f.atom for f in self.functions], dtype=np.int64)
        self.atom_offsets = np.searchsorted(
            self.function_atoms, np.arange(structure.n_atoms + 1)
        )
        # Per-atom reach of the farthest basis function (for sparsity).
        self.atom_cutoffs = np.array(
            [max(cutoff for _, _, cutoff in species[sym]) for sym in structure.symbols]
        )
        self._reach: Dict[float, np.ndarray] = {}
        symbols = np.array(structure.symbols)
        self._species = [
            self._stack(shells, np.nonzero(symbols == symbol)[0])
            for symbol, shells in species.items()
        ]

    def _stack(self, shells: List[_Shell], atoms: np.ndarray) -> _SpeciesTable:
        splines = [spline for _, spline, _ in shells]
        ls = [shell.l for shell, _, _ in shells]
        return _SpeciesTable(
            shells=shells,
            atoms=atoms,
            first_cols=self.atom_offsets[atoms],
            radial=CubicSpline.from_tables(
                splines[0].system,
                np.stack([spline.y for spline in splines], axis=1),
                np.stack([spline.m for spline in splines], axis=1),
            ),
            cutoffs=np.array([cutoff for _, _, cutoff in shells]),
            l_max=max(ls),
            shell_of_col=np.repeat(np.arange(len(ls)), [2 * l + 1 for l in ls]),
            lm_of_col=np.concatenate([np.arange(l * l, (l + 1) ** 2) for l in ls]),
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        points: np.ndarray,
        atoms: Optional[Sequence[int]] = None,
        cols: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Values chi_mu(r) at *points*, ``(n_points, n_cols)``.

        *cols* picks the block's columns (sorted basis indices, all
        ``n_basis`` by default).  If *atoms* is given, only functions on
        those atoms are evaluated (other columns stay zero) — the screened
        path used by batch-local integration.
        """
        return self._evaluate(points, atoms, cols, with_gradients=False)[0]

    def evaluate_with_gradients(
        self,
        points: np.ndarray,
        atoms: Optional[Sequence[int]] = None,
        cols: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Values and component-major gradients: ``(n_points, n_cols)``,
        ``(3, n_points, n_cols)`` — each ``grads[k]`` C-contiguous."""
        return self._evaluate(points, atoms, cols, with_gradients=True)

    def _evaluate(
        self, points: np.ndarray, atoms: Optional[Sequence[int]],
        cols: Optional[np.ndarray], with_gradients: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Both faces of evaluation: one array program per species.

        Every (point, atom) pair of a species within its largest cutoff
        is one column of channel-major ``(functions, pairs)`` arrays: one
        interval lookup serves all its shells, one solid-harmonics call
        its ``l_max``, and one flat scatter per component writes the
        block.  Elementwise the arithmetic is the per-shell loop's, so
        blocks are bit-identical to it (``tests/setup_oracles.py``).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n_pts = points.shape[0]
        cols = np.arange(self.n_basis) if cols is None else np.asarray(cols, dtype=np.int64)
        size = n_pts * cols.size
        # Row 0 the values, rows 1-3 the gradient components; each row's
        # last slot absorbs the functions of an atom outside *cols*.
        out = np.zeros((4 if with_gradients else 1, size + 1))
        slot = np.full(self.n_basis, -1)
        slot[cols] = np.arange(cols.size)
        wanted = np.zeros(self.structure.n_atoms, dtype=bool)
        wanted[slice(None) if atoms is None else np.asarray(atoms, dtype=np.int64)] = True
        for table in self._species:
            shell, lm = table.shell_of_col, table.lm_of_col
            dest = slot[table.first_cols[:, None] + np.arange(shell.size)]
            keep = np.flatnonzero(wanted[table.atoms] & (dest >= 0).any(axis=1))
            dest = dest[keep]
            centers = self.structure.coords[table.atoms[keep]]
            # Component-major displacements, (3, atoms x points), and
            # r = np.linalg.norm(d, axis=1) spelled out: the same sums in
            # the same order on contiguous components.
            d = (points.T[:, None, :] - centers.T[:, :, None]).reshape(3, -1)
            r = d[0] * d[0]
            r += d[1] * d[1]
            r += d[2] * d[2]
            np.sqrt(r, out=r)
            pairs = np.flatnonzero(r <= table.cutoffs.max())
            if not pairs.size:
                continue
            d, r = np.take(d, pairs, axis=1), np.take(r, pairs)
            atom, row = np.divmod(pairs, n_pts)
            # Channel-major from here: (functions, pairs).
            flat = np.take(dest.T, atom, axis=1)
            flat += row * cols.size
            if (dest < 0).any():
                flat[np.take(dest.T < 0, atom, axis=1)] = size
            # Semantic, not cosmetic: a table is ~1e-8, not 0, at its cutoff.
            outside = r > table.cutoffs[:, None]
            if with_gradients:
                g, dg = (x.T for x in table.radial.value_and_derivative(r))
                for x in (g, dg):
                    np.copyto(x, 0.0, where=outside)
                g, dg = np.take(g, shell, axis=0), np.take(dg, shell, axis=0)
                s, grad_s = solid_harmonics_with_gradients(d.T, table.l_max)
                s = np.take(s.T, lm, axis=0)
                grad_s = grad_s.T
                # Unit radial direction; safe at the nucleus because dg -> 0
                # there for the splined smooth g_l.
                rhat = d / np.maximum(r, 1e-12)
                dg *= s
                for k in range(3):
                    comp = dg * rhat[k]
                    comp += g * np.take(grad_s[k], lm, axis=0)
                    out[1 + k][flat] = comp
            else:
                g = table.radial(r).T
                np.copyto(g, 0.0, where=outside)
                g = np.take(g, shell, axis=0)
                s = np.take(solid_harmonics(d.T, table.l_max).T, lm, axis=0)
            g *= s
            out[0][flat] = g
        blocks = out[:, :size].reshape(out.shape[0], n_pts, cols.size)
        return blocks[0], (blocks[1:] if with_gradients else None)

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------
    def screened_function_cutoffs(self, threshold: float) -> np.ndarray:
        """Per-function effective reach at a screening threshold.

        Shape ``(n_basis,)``, read-only; every function of a shell shares
        the shell's :func:`effective_shell_radius`.  ``threshold <= 0``
        reproduces the full cutoffs (no screening).  Computed once per
        threshold: the reference seam asks again for every batch.
        """
        if threshold not in self._reach:
            out = np.empty(self.n_basis)
            for table in self._species:
                reach = np.array(
                    [
                        effective_shell_radius(spline, cutoff, shell.l, threshold)
                        for shell, spline, cutoff in table.shells
                    ]
                )[table.shell_of_col]
                out[table.first_cols[:, None] + np.arange(reach.size)] = reach
            out.setflags(write=False)
            self._reach[threshold] = out
        return self._reach[threshold]


# Species-level cache: the radial tables depend only on the element.
_SPECIES_CACHE: Dict[str, List[_Shell]] = {}


def _species_shells(symbol: str, z: int) -> List[_Shell]:
    if symbol not in _SPECIES_CACHE:
        grid = LogRadialGrid.for_species(z, _RADIAL_KNOTS, r_max=12.0)
        entries = []
        for shell in light_shells(symbol):
            spline, cutoff = radial_function(shell, grid)
            # Every molecule of the process shares these very arrays, so
            # a write through one would corrupt all: refuse it.
            for table in (spline.x, spline.y, spline.m):
                table.setflags(write=False)
            entries.append((shell, spline, cutoff))
        _SPECIES_CACHE[symbol] = entries
    return _SPECIES_CACHE[symbol]


def build_basis(structure: Structure, level: str = "light") -> BasisSet:
    """Construct the NAO basis for a structure.

    Currently only the ``"light"`` level exists; the count per element is
    cross-checked against :attr:`Element.n_basis_light`.
    """
    if level != "light":
        raise BasisError(f"only the 'light' basis level is implemented, got {level!r}")
    species: Dict[str, List[_Shell]] = {}
    for sym, elem in zip(structure.symbols, structure.elements):
        if sym in species:
            continue
        species[sym] = _species_shells(sym, elem.z)
        count = sum(shell.n_functions for shell, _, _ in species[sym])
        if count != elem.n_basis_light:
            raise BasisError(
                f"basis count mismatch for {sym}: built {count}, "
                f"element table says {elem.n_basis_light}"
            )
    return BasisSet(structure, species)
