"""Builders for the molecular systems used throughout the paper.

* small validation molecules (H2, H2O, CH4),
* the H(C2H4)nH polyethylene family used for all scaling studies
  (Figs. 10, 11, 13, 14, 15, 16),
* a 49-atom HIV-1 protease ligand stand-in (Fig. 9(b)),
* a 3 006-atom globular "RBD-like" protein stand-in (Figs. 9(a), 9(c), 14).

The two biomolecules substitute for proprietary PDB-derived inputs: the
experiments that consume them depend only on atom count, element
composition and spatial distribution, all of which are preserved (see
DESIGN.md section 2).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.atoms.structure import Structure
from repro.constants import ANGSTROM_IN_BOHR
from repro.errors import GeometryError

_CC_BOND = 1.54 * ANGSTROM_IN_BOHR  # single C-C bond
_CH_BOND = 1.09 * ANGSTROM_IN_BOHR
_OH_BOND = 0.9572 * ANGSTROM_IN_BOHR
_HH_BOND = 0.7414 * ANGSTROM_IN_BOHR
_TETRAHEDRAL = math.acos(-1.0 / 3.0)  # 109.47 deg


def hydrogen_molecule(bond_length: float = _HH_BOND) -> Structure:
    """H2 aligned with the z axis, centred at the origin."""
    half = 0.5 * bond_length
    return Structure(
        ["H", "H"], np.array([[0.0, 0.0, -half], [0.0, 0.0, half]]), name="H2"
    )


def water() -> Structure:
    """A single water molecule (experimental gas-phase geometry)."""
    angle = math.radians(104.52)
    x = _OH_BOND * math.sin(angle / 2.0)
    z = _OH_BOND * math.cos(angle / 2.0)
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [x, 0.0, z],
            [-x, 0.0, z],
        ]
    )
    return Structure(["O", "H", "H"], coords, name="H2O")


#: The molecules every ``--molecule`` flag, service payload and golden
#: record may name instead of carrying a geometry.
BUILTIN_MOLECULES: Dict[str, Callable[[], Structure]] = {
    "h2": hydrogen_molecule,
    "water": water,
}


def methane() -> Structure:
    """CH4 in perfect tetrahedral geometry."""
    d = _CH_BOND / math.sqrt(3.0)
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [d, d, d],
            [d, -d, -d],
            [-d, d, -d],
            [-d, -d, d],
        ]
    )
    return Structure(["C", "H", "H", "H", "H"], coords, name="CH4")


def polyethylene_atom_count(n_units: int) -> int:
    """Atom count of H(C2H4)nH: 6n + 2."""
    if n_units < 1:
        raise GeometryError(f"need at least one C2H4 unit, got {n_units}")
    return 6 * n_units + 2


def polyethylene_units_for_atoms(n_atoms: int) -> int:
    """Inverse of :func:`polyethylene_atom_count` (must divide exactly)."""
    if (n_atoms - 2) % 6 != 0:
        raise GeometryError(f"{n_atoms} is not of the form 6n+2")
    return (n_atoms - 2) // 6


def polyethylene(n_units: int) -> Structure:
    """All-trans zigzag H(C2H4)nH chain along the x axis.

    Fully vectorized so the 200 012-atom chain (n = 33 335) builds in
    milliseconds.  Carbons alternate +y/-y in the standard zigzag; each
    carbon carries two hydrogens in the perpendicular plane; the two
    chain ends are capped with one extra hydrogen each.
    """
    n_carbons = 2 * n_units
    half_angle = _TETRAHEDRAL / 2.0
    dx = _CC_BOND * math.sin(half_angle)  # advance along the chain
    dy = _CC_BOND * math.cos(half_angle)  # zigzag amplitude

    ic = np.arange(n_carbons)
    c_coords = np.zeros((n_carbons, 3))
    c_coords[:, 0] = ic * dx
    c_coords[:, 1] = np.where(ic % 2 == 0, 0.0, dy)

    # Two hydrogens per carbon, displaced out of the zigzag plane and
    # away from the chain in y.
    h_off_z = _CH_BOND * math.sin(half_angle)
    h_off_y = _CH_BOND * math.cos(half_angle)
    sign_y = np.where(ic % 2 == 0, -1.0, 1.0)
    h1 = c_coords.copy()
    h1[:, 1] += sign_y * h_off_y
    h1[:, 2] += h_off_z
    h2 = c_coords.copy()
    h2[:, 1] += sign_y * h_off_y
    h2[:, 2] -= h_off_z

    # Terminal caps extend the chain pattern with C-H bonds.
    cap0 = c_coords[0] + np.array([-dx, dy, 0.0]) * (_CH_BOND / _CC_BOND)
    sign_last = 1.0 if (n_carbons - 1) % 2 == 0 else -1.0
    cap1 = c_coords[-1] + np.array([dx, sign_last * dy, 0.0]) * (_CH_BOND / _CC_BOND)

    coords = np.vstack([c_coords, h1, h2, cap0[None, :], cap1[None, :]])
    symbols = ["C"] * n_carbons + ["H"] * (2 * n_carbons + 2)
    s = Structure(symbols, coords, name=f"H(C2H4){n_units}H")
    assert s.n_atoms == polyethylene_atom_count(n_units)
    return s


def _chain_molecule(
    composition: List[Tuple[str, int]],
    seed: int,
    bond: float,
    name: str,
) -> Structure:
    """Deterministic self-avoiding-walk molecule with given composition.

    Heavy atoms form a random-walk backbone with realistic bond lengths;
    hydrogens decorate the backbone.  Used to stand in for PDB-derived
    geometries whose exact coordinates are immaterial to the experiments.
    """
    rng = np.random.default_rng(seed)
    heavy = [s for s, cnt in composition if s != "H" for _ in range(cnt)]
    n_h = sum(cnt for s, cnt in composition if s == "H")
    rng.shuffle(heavy)

    positions = [np.zeros(3)]
    direction = np.array([1.0, 0.0, 0.0])
    min_sep = 0.8 * bond
    for _ in range(1, len(heavy)):
        for _attempt in range(200):
            # Bias the walk forward so the chain stays extended but kinked.
            step = direction + 0.9 * rng.standard_normal(3)
            step /= np.linalg.norm(step)
            candidate = positions[-1] + bond * step
            d = np.linalg.norm(np.array(positions) - candidate, axis=1)
            if np.all(d >= min_sep):
                positions.append(candidate)
                direction = step
                break
        else:
            raise GeometryError(f"self-avoiding walk failed while building {name}")

    heavy_pos = np.array(positions)
    # Attach hydrogens round-robin to backbone atoms, pushed outward.
    h_pos = []
    centroid = heavy_pos.mean(axis=0)
    for k in range(n_h):
        anchor = heavy_pos[k % len(heavy)]
        outward = anchor - centroid
        norm = np.linalg.norm(outward)
        outward = outward / norm if norm > 1e-9 else np.array([0.0, 0.0, 1.0])
        jitter = 0.4 * rng.standard_normal(3)
        direction_h = outward + jitter
        direction_h /= np.linalg.norm(direction_h)
        h_pos.append(anchor + _CH_BOND * direction_h)

    symbols = heavy + ["H"] * n_h
    coords = np.vstack([heavy_pos, np.array(h_pos)]) if n_h else heavy_pos
    return Structure(symbols, coords, name=name)


def hiv_ligand() -> Structure:
    """49-atom stand-in for the HIV-1 protease ligand of PDB 1a30.

    The 1a30 ligand is a Glu-Asp-Leu tripeptide; we reproduce its atom
    count and a matching C/N/O/H composition (C16 N3 O8 H22 = 49 atoms)
    with a deterministic self-avoiding-walk geometry.
    """
    s = _chain_molecule(
        [("C", 16), ("N", 3), ("O", 8), ("H", 22)],
        seed=1030,
        bond=1.5 * ANGSTROM_IN_BOHR,
        name="HIV-1 ligand (1a30-like)",
    )
    assert s.n_atoms == 49
    return s


def rbd_like_protein(n_atoms: int = 3006, seed: int = 2019) -> Structure:
    """Globular protein stand-in for the SARS-CoV-2 Spike RBD (3 006 atoms).

    Atoms are placed on a jittered cubic lattice carved to a ball, giving
    protein-like packing density (~0.094 atoms/A^3 => one atom per
    ~10.6 A^3) with a typical protein element composition.  The grid
    placement guarantees a minimum interatomic separation, so downstream
    grid partitioning and neighbour queries behave like a real protein's.
    """
    if n_atoms < 10:
        raise GeometryError(f"protein stand-in needs >= 10 atoms, got {n_atoms}")
    rng = np.random.default_rng(seed)

    volume_per_atom = 10.6 * ANGSTROM_IN_BOHR**3  # Bohr^3
    spacing = volume_per_atom ** (1.0 / 3.0)
    radius = (3.0 * n_atoms * volume_per_atom / (4.0 * math.pi)) ** (1.0 / 3.0)

    half_cells = int(math.ceil(radius / spacing)) + 1
    axis = np.arange(-half_cells, half_cells + 1) * spacing
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    dist = np.linalg.norm(lattice, axis=1)
    inside = lattice[dist <= radius + spacing]
    order = np.argsort(np.linalg.norm(inside, axis=1), kind="stable")
    inside = inside[order]
    if inside.shape[0] < n_atoms:
        raise GeometryError("lattice too small for requested protein size")
    coords = inside[:n_atoms] + rng.uniform(-0.25, 0.25, size=(n_atoms, 3)) * spacing

    # Average protein composition (atom fraction).
    fractions = [("H", 0.495), ("C", 0.32), ("N", 0.085), ("O", 0.095), ("S", 0.005)]
    symbols: List[str] = []
    for sym, frac in fractions:
        symbols.extend([sym] * int(round(frac * n_atoms)))
    while len(symbols) < n_atoms:
        symbols.append("H")
    del symbols[n_atoms:]
    rng.shuffle(symbols)

    return Structure(symbols, coords, name=f"RBD-like protein ({n_atoms} atoms)")
