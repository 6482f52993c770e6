"""Molecular structures: element data, geometries, builders and I/O."""

from repro.atoms.element import Element, element, ELEMENTS
from repro.atoms.structure import Structure
from repro.atoms.builders import (
    BUILTIN_MOLECULES,
    hydrogen_molecule,
    water,
    methane,
    polyethylene,
    hiv_ligand,
    rbd_like_protein,
    polyethylene_atom_count,
    polyethylene_units_for_atoms,
)
from repro.atoms.io import read_geometry_in, write_geometry_in

__all__ = [
    "Element",
    "element",
    "ELEMENTS",
    "Structure",
    "BUILTIN_MOLECULES",
    "hydrogen_molecule",
    "water",
    "methane",
    "polyethylene",
    "hiv_ligand",
    "rbd_like_protein",
    "polyethylene_atom_count",
    "polyethylene_units_for_atoms",
    "read_geometry_in",
    "write_geometry_in",
]
