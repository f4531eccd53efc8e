"""Exact Gaussian rationals and extended-range logarithms of their magnitudes.

Coefficient arithmetic throughout the package is exact: a Gaussian rational
is a complex number ``a + b*i`` whose real and imaginary parts are
arbitrary-precision fractions. Canonical form (coprime numerator and
denominator, positive denominator) is inherited from ``fractions.Fraction``.
Both operands of ``+``, ``-``, ``*`` and ``/`` are Gaussian rationals; an int
or Fraction enters through ``GaussianRational.coerce``, and only ``==``
compares with one directly. Instances are not hashable.

Log magnitudes need care. Squared magnitudes of cyclic-resultant
coefficients reach 10^1600 and beyond, far outside float range, so the
logarithm of an exact fraction is taken on a (mantissa, binary exponent)
split of the integers involved and never by converting a big integer to
float; only the final value, which fits a float easily, is a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

LN2 = math.log(2.0)

_Rat = int | Fraction


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: _Rat = 0, im: _Rat = 0):
        # a Fraction is immutable, so one is kept as it is, not copied
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value: "GaussianRational | int | Fraction") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as a Gaussian rational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def abs_squared(self) -> Fraction:
        """|a + b*i|^2 = a^2 + b^2, exact.

        The parts' numerators and denominators are squared as ints and the
        sum is normalised once, by the one ``Fraction`` built.
        """
        a, p = self.re.numerator, self.re.denominator
        if not self.im:
            return Fraction(a * a, p * p)
        b, q = self.im.numerator, self.im.denominator
        if p == q:
            return Fraction(a * a + b * b, q * q)
        return Fraction(a * a * q * q + b * b * p * p, p * p * q * q)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d = other.abs_squared()
        if not d:
            raise ZeroDivisionError("division by zero")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __bool__(self):
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _ln_positive_ratio(num: int, den: int) -> tuple[float, int]:
    """ln(num/den) for positive integers of any size, as (mantissa_log, exp2).

    Strategy: split off the binary exponent so the mantissa ratio sits in
    [1/2, 2), except near 1 where log1p on the exactly-rounded difference
    quotient avoids cancellation. Big-int true division in CPython is
    correctly rounded, so every float that enters a log call carries at most
    half an ulp of input error; the relative error of the result stays below
    2^-48, well under the 2^-40 budget the dominance tests assume.
    """
    if num <= 0 or den <= 0:
        raise ValueError("logarithm of a non-positive ratio")
    if num == den:
        return 0.0, 0
    e = num.bit_length() - den.bit_length()
    if -1 <= e <= 1 and 2 * abs(num - den) <= den:
        # ratio within [1/2, 3/2]: the log itself may be tiny
        return math.log1p((num - den) / den), 0
    if e >= 0:
        m = num / (den << e)
    else:
        m = (num << -e) / den
    return math.log(m), e


def half_ln_fraction(value: Fraction) -> float:
    """``ln(value) / 2`` of a positive rational, halving the binary exponent exactly."""
    mant, exp2 = _ln_positive_ratio(value.numerator, value.denominator)
    if exp2 % 2:
        return (mant + LN2) * 0.5 + ((exp2 - 1) // 2) * LN2
    return mant * 0.5 + (exp2 // 2) * LN2


def half_ln_error(x: float) -> float:
    """A bound on |half_ln_fraction(value) - ln(value) / 2| from its result x.

    With u = 2^-53: the ratio entering log or log1p is correctly rounded
    and lies in [1/2, 2], so its log moves by about u, and log and log1p
    add 4 ulps of a value below 1, so mant is within 5u.  The odd-exponent
    sum mant + LN2 adds u for LN2's rounding and for its own, and the
    halving is exact: 3.25u.  With q the whole multiple of LN2, |q| <=
    1.45|x| + 1.5, and q * LN2 is within 1.2|q|u (LN2's half ulp, then
    the product's rounding); the last addition rounds by u|x|.  That sums
    to under u(5.1 + 2.8|x|), below the 2^-50 (1 + |x|) returned.
    """
    return 2.0 ** -50 * (1 + abs(x))

