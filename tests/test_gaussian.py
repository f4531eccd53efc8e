import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebas.gaussian import GaussianRational, half_ln_error, half_ln_fraction
from conftest import coefficients, nonzero_coefficients, small_fractions
from oracles import ln_fraction


def test_construction_and_coercion():
    a = GaussianRational(Fraction(1, 2), -3)
    assert a.re == Fraction(1, 2) and a.im == -3
    assert GaussianRational.coerce(5) == GaussianRational(5)
    assert GaussianRational.coerce(Fraction(2, 7)).re == Fraction(2, 7)
    same = GaussianRational(1, 1)
    assert GaussianRational.coerce(same) is same
    with pytest.raises(TypeError):
        GaussianRational.coerce(1.5)


def test_arithmetic_identities():
    a = GaussianRational(2, 3)
    b = GaussianRational(Fraction(-1, 2), 1)
    assert a + b == GaussianRational(Fraction(3, 2), 4)
    assert a - a == GaussianRational(0)
    assert a * b == GaussianRational(2 * Fraction(-1, 2) - 3, 2 + 3 * Fraction(-1, 2))
    assert (a / b) * b == a
    assert -a + a == GaussianRational(0)
    # operands are Gaussian rationals only; coerce an int or Fraction first
    for other in (1, Fraction(1, 2), 1.5):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_equality_and_hash_with_rationals():
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(3, 1) != 3
    # no program path hashes a coefficient; hashing one fails loudly
    with pytest.raises(TypeError):
        hash(GaussianRational(3))


@given(coefficients, coefficients)
def test_conjugate_multiplication_gives_abs_squared(a, b):
    conjugate = GaussianRational(a.re, -a.im)
    assert (a * conjugate).re == a.abs_squared()
    assert (a * conjugate).im == 0
    assert (a * b).abs_squared() == a.abs_squared() * b.abs_squared()


@given(small_fractions, st.builds(Fraction, st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**30)))
def test_abs_squared_with_different_denominators(a, b):
    # parts over different denominators take the cross form; the result
    # is the same normalised Fraction as the Fraction arithmetic's
    c = GaussianRational(a, b)
    assume(c.re.denominator != c.im.denominator)
    got = c.abs_squared()
    assert type(got) is Fraction and got == a * a + b * b


@given(nonzero_coefficients)
def test_log_abs_matches_high_precision(c):
    got = half_ln_fraction(c.abs_squared())
    with mpmath.workdps(60):
        sq = c.abs_squared()
        want = float(mpmath.log(mpmath.sqrt(
            mpmath.mpf(sq.numerator) / mpmath.mpf(sq.denominator)
        )))
    assert got == pytest.approx(want, abs=1e-13, rel=1e-13)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_ln_fraction_accuracy(num, den):
    got = ln_fraction(Fraction(num, den))
    with mpmath.workdps(60):
        want = float(mpmath.log(mpmath.mpf(num) / mpmath.mpf(den)))
    assert got == pytest.approx(want, abs=1e-13, rel=1e-13)


def test_ln_fraction_near_one_keeps_relative_accuracy():
    # the log is ~1e-9 here; a naive float(num/den) would lose most digits
    v = Fraction(10**9 + 1, 10**9)
    got = ln_fraction(v)
    with mpmath.workdps(60):
        want = float(mpmath.log(mpmath.mpf(10**9 + 1) / mpmath.mpf(10**9)))
    assert got == pytest.approx(want, rel=1e-12)


def test_ln_fraction_huge_values():
    v = Fraction(3**2000, 2**1500)
    got = ln_fraction(v)
    want = 2000 * math.log(3) - 1500 * math.log(2)
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        ln_fraction(Fraction(0))


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_half_ln_fraction_is_half(num, den):
    v = Fraction(num, den)
    assert half_ln_fraction(v) == pytest.approx(
        ln_fraction(v) / 2, abs=1e-13, rel=1e-13
    )


def test_half_ln_odd_exponent_stays_integral():
    # an odd raw binary exponent is halved without losing accuracy
    assert half_ln_fraction(Fraction(8)) == pytest.approx(1.5 * math.log(2), rel=1e-15)


# positive rationals whose numerator or denominator runs past 2^1000,
# near 1 (the log1p branch) and with odd and even binary exponents
_RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(1, 2**1100), st.integers(1, 2**1100)),
    st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)),
    st.builds(lambda d, k: Fraction(d + k, d), st.integers(2**60, 2**1050), st.integers(-(2**40), 2**40)),
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e, st.integers(1, 2**60), st.integers(-3000, 3000)),
).filter(bool)


@given(_RATIONALS)
@settings(max_examples=2000)
def test_half_ln_fraction_within_its_error_bound(v):
    # the raster's inside guard takes this bound for the table's logb
    x = half_ln_fraction(v)
    with mpmath.workdps(50):
        exact = mpmath.log(mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)) / 2
        assert abs(mpmath.mpf(x) - exact) <= half_ln_error(x)


def test_log_abs_of_zero_rejected():
    with pytest.raises(ValueError):
        half_ln_fraction(GaussianRational(0).abs_squared())


@given(small_fractions.filter(bool))
def test_log_abs_real_case(q):
    assert half_ln_fraction(GaussianRational(q).abs_squared()) == pytest.approx(
        math.log(abs(float(q))), rel=1e-12, abs=1e-12
    )
