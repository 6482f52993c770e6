"""The one neighbour search against its all-pairs oracle.

``sphere_overlaps`` replaced seven hand-rolled searches; everything the
callers relied on is pinned here once: the hit set, the inclusive
comparison, ascending rows, the empty cases and the typed errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GridError
from repro.utils.neighbors import sphere_overlaps
from tests.setup_oracles import sphere_overlaps_oracle


@st.composite
def sphere_sets(draw):
    """Two point sets and their radii, biased towards the hard places:
    lattice points (cell faces for radii that are lattice multiples),
    the denormal neighbourhood of a face, duplicates, negative
    coordinates, zero radii, empty and one-point sets."""
    step = draw(st.sampled_from([0.5, 1.0, 3.0]))
    coord = st.one_of(
        st.integers(-6, 6).map(lambda k: k * step),
        st.floats(-20.0, 20.0),
        st.sampled_from([-1e-300, -5e-324, 5e-324, 1e-300]),
    )
    points = st.lists(st.tuples(coord, coord, coord), max_size=12)
    radius = st.one_of(
        st.sampled_from([0.0, 0.5 * step, step, 2.0 * step]), st.floats(0.0, 8.0)
    )

    def radii(n):
        return st.one_of(radius, st.lists(radius, min_size=n, max_size=n))

    x, y = draw(points), draw(points)
    return (
        np.array(x, dtype=float).reshape(-1, 3),
        draw(radii(len(x))),
        np.array(y, dtype=float).reshape(-1, 3),
        draw(radii(len(y))),
    )


@given(sphere_sets())
@settings(max_examples=300, deadline=None)
def test_matches_all_pairs_oracle(case):
    x, rho, y, sigma = case
    indptr, indices = sphere_overlaps(x, rho, y, sigma)
    want_ptr, want_idx = sphere_overlaps_oracle(x, rho, y, sigma)
    assert np.array_equal(indptr, want_ptr)
    assert np.array_equal(indices, want_idx)
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.shape == (x.shape[0] + 1,) and indptr[-1] == indices.size
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        assert np.all(np.diff(indices[lo:hi]) > 0)


def test_comparison_is_inclusive():
    # |(0,0,0) - (3,4,0)| is exactly 5.0 in floating point.
    x, y = [[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]
    assert sphere_overlaps(x, 0.0, y, 5.0)[1].tolist() == [0]
    assert sphere_overlaps(x, 2.0, y, [3.0])[1].tolist() == [0]
    assert sphere_overlaps(x, 0.0, y, np.nextafter(5.0, 0.0))[1].tolist() == []


def test_pair_at_full_reach_across_a_cell_face():
    # The distance rounds to the reach (5.0) while, measured from the origin
    # the third point sets, the two quotients round away from each other: a
    # cell edge of exactly the reach files the pair two cells apart.
    x = [[-3.6e-15, 0.0, 0.0], [-40.0, 0.0, 0.0]]
    y = [[4.9999999999999964, 0.0, 0.0]]
    assert sphere_overlaps_oracle(x, 2.0, y, 3.0)[1].tolist() == [0]
    indptr, indices = sphere_overlaps(x, 2.0, y, 3.0)
    assert indptr.tolist() == [0, 1, 1] and indices.tolist() == [0]


@pytest.mark.filterwarnings("error")
def test_far_apart_points_with_tiny_radii():
    # Extent / reach ~ 1e12 per axis: the cell count is capped, and the
    # flattened key does not overflow (numpy warns when a scalar one does).
    x = np.array([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3], [1e3, 1e3, 1e3 + 1e-9]])
    indptr, indices = sphere_overlaps(x, 1e-9, x, 0.0)
    assert np.array_equal(indptr, [0, 1, 3, 5])
    assert indices.tolist() == [0, 1, 2, 1, 2]


def test_underflowing_separation_counts_as_zero():
    # The all-pairs distance squares 1e-300 to zero, so radii of zero touch.
    y = [[0.0, 0.0, -1e-300]]
    assert sphere_overlaps_oracle(np.zeros((1, 3)), 0.0, y, 0.0)[1].tolist() == [0]
    assert sphere_overlaps(np.zeros((1, 3)), 0.0, y, 0.0)[1].tolist() == [0]


@pytest.mark.parametrize(
    "n, m", [(0, 0), (0, 4), (4, 0)], ids=["both", "empty-x", "empty-y"]
)
def test_empty_sets_give_empty_csr(n, m):
    indptr, indices = sphere_overlaps(np.zeros((n, 3)), 1.0, np.zeros((m, 3)), 1.0)
    assert indptr.tolist() == [0] * (n + 1)
    assert indices.size == 0


@pytest.mark.parametrize(
    "x, rho, y, sigma, match",
    [
        (np.zeros(3), 1.0, np.zeros((2, 3)), 1.0, r"x must be \(n, 3\)"),
        (np.zeros((2, 3)), 1.0, np.zeros((2, 2)), 1.0, r"y must be \(n, 3\)"),
        (np.zeros((2, 3)), np.ones(3), np.zeros((2, 3)), 1.0, "rho has shape"),
        (np.zeros((2, 3)), 1.0, np.zeros((2, 3)), np.ones((2, 1)), "sigma has shape"),
        (np.zeros((2, 3)), -1.0, np.zeros((2, 3)), 1.0, "rho must be finite"),
        (np.zeros((2, 3)), 1.0, np.zeros((2, 3)), [1.0, np.nan], "sigma must be"),
        (np.zeros((2, 3)), np.inf, np.zeros((2, 3)), 1.0, "rho must be finite"),
    ],
)
def test_bad_input_is_a_grid_error(x, rho, y, sigma, match):
    with pytest.raises(GridError, match=match):
        sphere_overlaps(x, rho, y, sigma)
