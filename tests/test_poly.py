from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas.gaussian import GaussianRational
from amoebas.poly import (
    LaurentPoly,
    ParseError,
    add,
    exact_div,
    format_poly,
    max_variable_index,
    mul,
    parse,
)
from conftest import exponent_vectors, nonzero_coefficients, polys
from oracles import evaluate_complex, flip_signs, format_poly_fractions


class TestConstruction:
    def test_drops_zeros(self):
        p = LaurentPoly(2, {(1, 0): 0, (2, 0): GaussianRational(0), (0, 1): 3})
        assert p.terms == {(0, 1): GaussianRational(3)}
        assert LaurentPoly(1, {(0,): 0}).is_zero

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            LaurentPoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            LaurentPoly(2, {(1, Fraction(1, 2)): 1})
        with pytest.raises(ValueError):
            LaurentPoly(0, {})

    def test_helpers(self):
        assert LaurentPoly(3).is_zero
        c = LaurentPoly.constant(2, Fraction(1, 3))
        assert c.terms == {(0, 0): GaussianRational(Fraction(1, 3))}
        m = LaurentPoly(2, {(-1, 4): 5})
        assert m.terms == {(-1, 4): GaussianRational(5)}


class TestInspection:
    def test_degree_and_ranges(self):
        p = parse("z1^3*z2^-1 + z1 + 2", 2)
        assert p.total_degree() == 2
        assert p.exponent_range(1) == (0, 3)
        assert p.exponent_range(2) == (-1, 0)
        with pytest.raises(ValueError):
            p.exponent_range(3)
        with pytest.raises(ValueError):
            LaurentPoly(1).total_degree()

    def test_sorted_terms_graded_lex_descending(self):
        p = parse("z1 + z2 + z1*z2 + z1^2 + 1", 2)
        assert [e for e, _ in p.sorted_terms()] == [
            (2, 0), (1, 1), (1, 0), (0, 1), (0, 0),
        ]


def test_parse_basics():
    p = parse("z1^3 + z1*z2 + z2^3 + 1", 2)
    assert p.num_terms == 4
    assert p.terms[(1, 1)] == GaussianRational(1)
    q = parse("(2-1i)*z1*z2^-2 - 3/4", 2)
    assert q.terms[(1, -2)] == GaussianRational(2, -1)
    assert q.terms[(0, 0)] == GaussianRational(Fraction(-3, 4))
    assert parse("-z1^2+1", 1).terms[(2,)] == GaussianRational(-1)
    assert parse("z1 - z1", 1).is_zero
    assert parse("0", 1).is_zero
    assert parse("(0+3i)*z2", 2).terms[(0, 1)] == GaussianRational(0, 3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("z1 + + ", 1)
    assert err.value.pos >= 0
    for bad in ("z1^", "z3", "(1+2", "z1**2", "1/0", "z1 + -2"):
        with pytest.raises(ParseError):
            parse(bad, 2)


def test_max_variable_index():
    assert max_variable_index("z1*z2 + z7") == 7
    assert max_variable_index("3 + 4") == 1  # floor so the CLI never builds 0 vars


def test_format_golden():
    p = parse("z1^3 + z1*z2 + z2^3 + 1", 2)
    assert format_poly(p) == "z1^3+z2^3+z1*z2+1"
    assert format_poly(parse("-z1^2+1", 1)) == "-z1^2+1"
    assert format_poly(LaurentPoly(2)) == "0"
    # grade of z1*z2^-2 is -1, below the constant, so the constant leads
    assert format_poly(parse("(2-1i)*z1*z2^-2 - 3/4", 2)) == "-3/4+(2-1i)*z1*z2^-2"


# rational parts: zero, +-1, small, and large numerators and denominators
_format_parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
)
_format_coefficients = st.builds(GaussianRational, _format_parts, _format_parts)


@given(st.integers(1, 3).flatmap(lambda n: polys(n, max_terms=8, lo=-2, hi=2, coeffs=_format_coefficients)))
@settings(max_examples=400)
def test_format_matches_the_fraction_formatter(p):
    # format_poly prints each coefficient from its parts' numerators and
    # denominators; the text is the one Fraction arithmetic and printing
    # give, constants and unit magnitudes included
    assert format_poly(p) == format_poly_fractions(p)


@given(polys(2, max_terms=6))
def test_format_parse_round_trip(p):
    assert parse(format_poly(p), 2) == p


@given(polys(2), polys(2), polys(2))
def test_ring_axioms(p, q, r):
    assert add(p, q) == add(q, p)
    assert mul(p, q) == mul(q, p)
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert add(p, -p) == LaurentPoly(2)
    assert mul(p, LaurentPoly.constant(2, 1)) == p


@given(polys(2), polys(2))
def test_exact_div_inverts_mul(p, q):
    if q.is_zero:
        with pytest.raises(ValueError):
            exact_div(p, q)
        return
    assert exact_div(mul(p, q), q) == p


def test_exact_div_rejects_nondivisor():
    p = parse("z1^2 + 1", 1)
    q = parse("z1 + 2", 1)
    with pytest.raises(ValueError):
        exact_div(p, q)


@given(polys(2, max_terms=6), st.integers(1, 2), st.integers(1, 4))
def test_flip_signs_negates_masked_terms(p, var, level):
    mask = (1 << level) - 1
    flipped = flip_signs(p, var, level)
    assert set(flipped.terms) == set(p.terms)
    for e, c in p.terms.items():
        want = -c if e[var - 1] & mask else c
        assert flipped.terms[e] == want


def test_operator_sugar_matches_functions():
    # binary and unary minus, the operators the baseline's pseudo-remainder uses
    p = parse("z1 + 1", 1)
    q = parse("z1 - 1", 1)
    minus_one = LaurentPoly.constant(1, -1)
    assert p - q == add(p, mul(q, minus_one)) == parse("2", 1)
    assert -p == mul(p, minus_one) == parse("-z1 - 1", 1)


def test_evaluate_complex():
    p = parse("z1^2 + z2^-1", 2)
    got = evaluate_complex(p, (2j, 4))
    assert got == pytest.approx((2j) ** 2 + 0.25)
    with pytest.raises(ValueError):
        evaluate_complex(p, (1,))


@given(polys(3, max_terms=4), exponent_vectors(3))
def test_monomial_shift_is_support_translation(p, shift):
    shifted = mul(p, LaurentPoly(3, {shift: 1}))
    assert {tuple(a + b for a, b in zip(e, shift)) for e in p.terms} == set(
        shifted.terms
    )


@given(polys(1, max_terms=5, coeffs=nonzero_coefficients))
def test_negation_is_involution(p):
    assert -(-p) == p
