from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amoebas.newton import hull_of_points, newton
from amoebas.poly import LaurentPoly, parse
from oracles import hull_contains


def test_cubic_hull_is_the_full_triangle(cubic):
    data = newton(cubic)
    assert set(data.vertices) == {(0, 0), (3, 0), (0, 3)}
    assert len(data.lattice_points) == 10
    assert set(data.lattice_points) == {
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    }
    assert hull_contains(data, (1, 1))
    assert not hull_contains(data, (2, 2))
    assert not hull_contains(data, (-1, 0))


def test_single_point_hull():
    data = newton(parse("5*z1^2*z2^-3", 2))
    assert data.vertices == ((2, -3),)
    assert data.lattice_points == ((2, -3),)
    assert hull_contains(data, (2, -3))
    assert not hull_contains(data, (0, 0))


def test_segment_hull():
    data = newton(parse("z1 + z2", 2))
    assert set(data.vertices) == {(1, 0), (0, 1)}
    assert set(data.lattice_points) == {(1, 0), (0, 1)}
    assert not hull_contains(data, (0, 0))
    # rational midpoint lies on the segment
    assert hull_contains(data, (Fraction(1, 2), Fraction(1, 2)))


def test_univariate_interval():
    data = newton(parse("z1^4 + z1^-1", 1))
    assert set(data.vertices) == {(-1,), (4,)}
    assert data.lattice_points == ((-1,), (0,), (1,), (2,), (3,), (4,))


def test_three_var_simplex():
    data = newton(parse("z1*z2*z3 + z1^2 + z2 + z3 + 1", 3))
    assert (1, 1, 1) in data.lattice_points
    assert hull_contains(data, (1, 0, 0))
    assert not hull_contains(data, (2, 2, 2))
    for v in data.vertices:
        assert v in {(2, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 1)}


def test_hull_ignores_duplicates_and_interior():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1), (4, 0), (2, 1)]
    a = hull_of_points(pts, 2)
    b = hull_of_points([(0, 0), (4, 0), (0, 4)], 2)
    assert set(a.vertices) == set(b.vertices)
    assert set(a.lattice_points) == set(b.lattice_points)


def test_laurent_square():
    data = newton(parse("z1*z2 + z1^-1*z2 + z1*z2^-1 + z1^-1*z2^-1", 2))
    assert len(data.lattice_points) == 9
    assert hull_contains(data, (0, 0))


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8
    )
)
def test_support_always_inside_own_hull(points):
    p = LaurentPoly(2, {e: 1 for e in points})
    if p.is_zero:
        return
    data = newton(p)
    for e in p.terms:
        assert hull_contains(data, e)
        assert e in data.lattice_points
    for v in data.vertices:
        assert v in p.terms


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        newton(LaurentPoly(2))
