from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas.newton import newton
from amoebas.poly import LaurentPoly, parse
from oracles import hull_contains, hull_lattice_points


def support(p):
    return list(p.terms)


def test_cubic_hull_is_the_full_triangle(cubic):
    points = newton(cubic)
    assert len(points) == 10
    assert set(points) == {(i, j) for i in range(4) for j in range(4) if i + j <= 3}
    assert hull_contains(support(cubic), (1, 1))
    assert not hull_contains(support(cubic), (2, 2))
    assert not hull_contains(support(cubic), (-1, 0))


def test_single_point_hull():
    p = parse("5*z1^2*z2^-3", 2)
    assert newton(p) == ((2, -3),)
    assert hull_contains(support(p), (2, -3))
    assert not hull_contains(support(p), (0, 0))


def test_segment_hull():
    p = parse("z1 + z2", 2)
    assert newton(p) == ((0, 1), (1, 0))
    assert not hull_contains(support(p), (0, 0))
    # rational midpoint lies on the segment
    assert hull_contains(support(p), (Fraction(1, 2), Fraction(1, 2)))


def test_univariate_interval():
    assert newton(parse("z1^4 + z1^-1", 1)) == ((-1,), (0,), (1,), (2,), (3,), (4,))


def test_three_var_simplex():
    p = parse("z1*z2*z3 + z1^2 + z2 + z3 + 1", 3)
    points = newton(p)
    assert (1, 1, 1) in points
    assert (1, 0, 0) in points
    assert (2, 2, 2) not in points
    assert points == hull_lattice_points(support(p))


def test_hull_ignores_duplicates_and_interior():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1), (4, 0), (2, 1)]
    a = newton(LaurentPoly(2, {e: 1 for e in pts}))
    b = newton(LaurentPoly(2, {e: 1 for e in [(0, 0), (4, 0), (0, 4)]}))
    assert a == b
    assert len(a) == 15


def test_laurent_square():
    p = parse("z1*z2 + z1^-1*z2 + z1*z2^-1 + z1^-1*z2^-1", 2)
    assert newton(p) == tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
    assert hull_contains(support(p), (0, 0))


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8
    )
)
def test_support_always_inside_own_hull(points):
    p = LaurentPoly(2, {e: 1 for e in points})
    if p.is_zero:
        return
    found = newton(p)
    assert list(found) == sorted(found)
    for e in p.terms:
        assert e in found


@st.composite
def supports(draw):
    """Laurent supports in 1-3 variables: general, or on a line or a plane."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    vector = st.tuples(*[coord] * dim)
    spans = draw(st.integers(0, min(dim, 2)))  # 0: general position
    if spans == 0:
        return draw(st.lists(vector, min_size=1, max_size=7))
    base = draw(vector)
    directions = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=spans, max_size=spans))
    steps = st.lists(st.integers(-2, 2), min_size=spans, max_size=spans)
    return [
        tuple(b + sum(t * d[i] for t, d in zip(ts, directions)) for i, b in enumerate(base))
        for ts in draw(st.lists(steps, min_size=1, max_size=7))
    ]


@settings(max_examples=300)
@given(supports())
def test_lattice_points_match_caratheodory_oracle(points):
    p = LaurentPoly(len(points[0]), {e: 1 for e in points})
    assert newton(p) == hull_lattice_points(points)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        newton(LaurentPoly(2))
