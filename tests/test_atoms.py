"""Element data, Structure geometry, builders and geometry.in I/O."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import (
    ELEMENTS,
    Structure,
    element,
    hiv_ligand,
    hydrogen_molecule,
    methane,
    polyethylene,
    polyethylene_atom_count,
    polyethylene_units_for_atoms,
    rbd_like_protein,
    read_geometry_in,
    water,
    write_geometry_in,
)
from repro.constants import ANGSTROM_IN_BOHR
from repro.errors import GeometryError


def _pair_distances(structure):
    """Full ``(n, n)`` pairwise distance matrix (Bohr)."""
    c = structure.coords
    return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)


class TestElement:
    def test_supported_species(self):
        assert set(ELEMENTS) == {"H", "C", "N", "O", "S"}

    def test_unknown_element_raises(self):
        with pytest.raises(GeometryError, match="unsupported element"):
            element("Xx")

    def test_covalent_radii_ordering(self):
        # S > C > O > H in covalent radius.
        assert element("S").covalent_radius > element("C").covalent_radius
        assert element("C").covalent_radius > element("H").covalent_radius


class TestStructure:
    def test_basic_properties(self):
        w = water()
        assert w.n_atoms == 3
        assert w.n_electrons == 10
        assert w.symbols == ("O", "H", "H")

    def test_coords_read_only(self):
        w = water()
        with pytest.raises(ValueError):
            w.coords[0, 0] = 99.0

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            Structure(["H"], np.zeros((1, 2)))
        with pytest.raises(GeometryError):
            Structure(["H", "H"], np.zeros((1, 3)))
        with pytest.raises(GeometryError):
            Structure([], np.zeros((0, 3)))

    def test_distance_matrix_symmetric_zero_diagonal(self):
        w = water()
        d = np.array([[w.distance(i, j) for j in range(3)] for i in range(3)])
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_oh_bond_length(self):
        w = water()
        assert w.distance(0, 1) == pytest.approx(0.9572 * ANGSTROM_IN_BOHR, rel=1e-6)

    def test_neighbors_within(self):
        w = water()
        assert set(w.neighbors_within(0, 3.0)) == {1, 2}
        assert w.neighbors_within(0, 0.1).size == 0

    def test_translate_and_center(self):
        w = water().translated([1.0, 2.0, 3.0]).centered()
        assert np.allclose(w.centroid(), 0.0, atol=1e-12)

    def test_subset(self):
        w = water()
        sub = w.subset([0])
        assert sub.n_atoms == 1 and sub.symbols == ("O",)
        with pytest.raises(GeometryError):
            w.subset([])

    def test_bounding_box_padding(self):
        lo, hi = water().bounding_box(padding=2.0)
        lo2, hi2 = water().bounding_box()
        assert np.allclose(lo, lo2 - 2.0) and np.allclose(hi, hi2 + 2.0)


class TestBuilders:
    def test_h2_bond(self):
        h2 = hydrogen_molecule()
        assert h2.distance(0, 1) == pytest.approx(0.7414 * ANGSTROM_IN_BOHR, rel=1e-6)

    def test_methane_tetrahedral(self):
        ch4 = methane()
        d = [ch4.distance(0, i) for i in range(1, 5)]
        assert np.allclose(d, d[0])

    @given(n=st.integers(min_value=1, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_polyethylene_atom_count_formula(self, n):
        assert polyethylene(n).n_atoms == 6 * n + 2 == polyethylene_atom_count(n)

    def test_polyethylene_inverse(self):
        assert polyethylene_units_for_atoms(30002) == 5000
        with pytest.raises(GeometryError):
            polyethylene_units_for_atoms(30001)

    def test_polyethylene_bond_lengths(self):
        pe = polyethylene(4)
        cc = pe.distance(0, 1)
        assert cc == pytest.approx(1.54 * ANGSTROM_IN_BOHR, rel=1e-6)

    def test_polyethylene_no_atom_clashes(self):
        pe = polyethylene(20)
        d = _pair_distances(pe)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1.5  # Bohr

    def test_hiv_ligand_composition(self):
        lig = hiv_ligand()
        assert lig.n_atoms == 49
        from collections import Counter

        counts = Counter(lig.symbols)
        assert counts["C"] == 16 and counts["N"] == 3 and counts["O"] == 8

    def test_hiv_ligand_deterministic(self):
        assert np.allclose(hiv_ligand().coords, hiv_ligand().coords)

    def test_rbd_like_size_and_composition(self):
        rbd = rbd_like_protein(500, seed=7)
        assert rbd.n_atoms == 500
        assert {"H", "C", "N", "O"} <= set(rbd.symbols)

    def test_rbd_min_separation(self):
        rbd = rbd_like_protein(300, seed=3)
        d = _pair_distances(rbd)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1.0  # jittered lattice keeps atoms apart

    def test_rbd_default_is_paper_size(self):
        assert rbd_like_protein().n_atoms == 3006


class TestGeometryIO:
    def test_roundtrip(self):
        w = water()
        buf = io.StringIO()
        write_geometry_in(w, buf)
        buf.seek(0)
        back = read_geometry_in(buf)
        assert back.symbols == w.symbols
        assert np.allclose(back.coords, w.coords, atol=1e-9)

    def test_read_with_comments(self):
        text = "# comment\natom 0.0 0.0 0.0 O # inline\n\natom 1.0 0.0 0.0 H\n"
        s = read_geometry_in(io.StringIO(text))
        assert s.n_atoms == 2

    def test_rejects_periodic(self):
        with pytest.raises(GeometryError, match="periodic"):
            read_geometry_in(io.StringIO("lattice_vector 1 0 0\n"))

    def test_rejects_malformed(self):
        with pytest.raises(GeometryError):
            read_geometry_in(io.StringIO("atom 1.0 2.0 O\n"))
        with pytest.raises(GeometryError):
            read_geometry_in(io.StringIO("atom x y z O\n"))
        with pytest.raises(GeometryError):
            read_geometry_in(io.StringIO("banana 1 2 3 O\n"))
        with pytest.raises(GeometryError, match="no atoms"):
            read_geometry_in(io.StringIO("# empty\n"))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "geometry.in"
        write_geometry_in(polyethylene(2), path)
        s = read_geometry_in(path)
        assert s.n_atoms == 14
