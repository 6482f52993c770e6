"""FHI-aims ``geometry.in`` reading and writing.

The artifact's datasets are ``geometry.in`` files ("a series of atomic
types and coordinates").  The format is line-oriented::

    atom  <x> <y> <z>  <species>

with coordinates in Angstrom and ``#`` comments.  Only the ``atom``
keyword is supported (finite systems; no ``lattice_vector``).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.atoms.structure import Structure
from repro.constants import ANGSTROM_IN_BOHR, BOHR_IN_ANGSTROM
from repro.errors import GeometryError

PathLike = Union[str, Path]


def read_geometry_in(source: Union[PathLike, io.TextIOBase], name: str = "") -> Structure:
    """Parse a ``geometry.in`` file (or open text stream) into a Structure."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise GeometryError(f"cannot read {source}: {exc.strerror or exc}") from None
        name = name or Path(source).stem
    else:
        text = source.read()

    symbols: List[str] = []
    rows: List[List[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "lattice_vector":
            raise GeometryError(
                f"line {lineno}: periodic systems are not supported"
            )
        if keyword != "atom":
            raise GeometryError(f"line {lineno}: unknown keyword {keyword!r}")
        if len(parts) != 5:
            raise GeometryError(
                f"line {lineno}: expected 'atom x y z species', got {raw!r}"
            )
        try:
            xyz = [float(v) for v in parts[1:4]]
        except ValueError:
            raise GeometryError(f"line {lineno}: non-numeric coordinate in {raw!r}")
        rows.append(xyz)
        symbols.append(parts[4])

    if not rows:
        raise GeometryError("geometry.in contained no atoms")
    coords = np.asarray(rows) * ANGSTROM_IN_BOHR
    return Structure(symbols, coords, name=name or "geometry.in")


def write_geometry_in(structure: Structure, target: Union[PathLike, io.TextIOBase]) -> None:
    """Write a Structure in ``geometry.in`` format (coordinates in Angstrom)."""
    lines = [f"# {structure.name}", f"# {structure.n_atoms} atoms"]
    coords_ang = structure.coords * BOHR_IN_ANGSTROM
    for sym, (x, y, z) in zip(structure.symbols, coords_ang):
        lines.append(f"atom {x: .10f} {y: .10f} {z: .10f} {sym}")
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
