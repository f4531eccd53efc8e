"""Semialgebraic description of one level of the certified complement.

In magnitude coordinates x_i = |z_i| > 0 the level-k certificate region
is a finite union of basic sets: writing g(x) for the sum of the term
magnitudes of the folded product, a point is certified with component
order alpha exactly when the single term carrying exponent s*alpha,
s = 2^(k*nvars), outweighs all the others together:

    2 * |b_{s alpha}| * x^(s alpha) > g(x),    x in the open orthant.

The candidate orders are the lattice points of the input's exponent
hull: the fold's exponents lie in s times that hull, so a dominating
exponent that s divides is s times one of them, and every certified
point falls in a candidate's branch.  Term magnitudes are carried
exactly as squared rationals and never rounded in the data model.
Point queries at rational log coordinates reuse the canonical
integer pipeline from ``lopsided`` and so agree with the grid
classifier bit for bit; rasterization samples a square of magnitudes,
whose logs are irrational, and runs the same margin test on float log
coordinates.  A raster has at most ``MAX_GRID_POINTS`` samples, the
grid's point limit, and each fold at most ``cycres.MAX_TERMS`` terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cycres import quick_cyclic_resultant
from .gridsolver import MAX_GRID_POINTS
from .lopsided import TermTable, point_numerators
from .lopsided import peak_margins  # noqa: F401  (perfbench/spans.py wraps it here)
from .newton import newton
from .poly import ExponentVector, LaurentPoly, _format_monomial, _grade_key


@dataclass(frozen=True)
class Candidate:
    """One potential component order with its scaled term of the product.

    sq_magnitude is zero when the product has no term at the scaled
    exponent; that branch of the union is empty.
    """

    order: ExponentVector
    scaled_exponent: ExponentVector
    sq_magnitude: Fraction


@dataclass(frozen=True, eq=False)
class Raster:
    """Point-sampled membership image of a system over the square [lo, hi]^2.

    mask[i, j] is True where the approximation holds at the magnitudes
    (x_i, x_j), x_i = lo + i*(hi - lo)/(res - 1) with res = len(mask).
    """

    lo: Fraction
    hi: Fraction
    mask: np.ndarray


def check_raster(nvars, lo, hi, res):
    """Raise ValueError for what ``SemiAlgSystem.rasterize`` cannot draw.

    The command line calls it before it folds anything.
    """
    if nvars != 2:
        raise ValueError("rasterize draws 2-variable systems only")
    if res < 2:
        raise ValueError("need at least 2 samples per axis")
    if res * res > MAX_GRID_POINTS:
        raise ValueError(f"raster has {res * res} samples, limit is {MAX_GRID_POINTS}")
    if lo <= 0:
        raise ValueError("the box must lie in the open positive orthant")
    if hi <= lo:
        raise ValueError(f"axis range [{lo}, {hi}] needs lo < hi")
    try:
        fits = float(lo) > 0 and math.isfinite(float(hi))
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError("box bounds must be nonzero and finite as floats")


def _sample_axis(lo: Fraction, hi: Fraction, res):
    """Floats of lo + i*(hi - lo)/(res - 1), i < res, each rounded once.

    Sample i is (num0 + i*step) / den in integers, and int / int rounds
    correctly, as float(Fraction) does.
    """
    den = lo.denominator * hi.denominator * (res - 1)
    num0 = lo.numerator * hi.denominator * (res - 1)
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return np.array([(num0 + i * step) / den for i in range(res)])


def magnitude_string(sq: Fraction):
    """Exact rendering of sqrt(sq): a rational when possible."""
    if sq == 0:
        return "0"
    num = math.isqrt(sq.numerator)
    den = math.isqrt(sq.denominator)
    if num * num == sq.numerator and den * den == sq.denominator:
        return str(Fraction(num, den))
    return f"sqrt({sq})"


def _product(*factors):
    """The factors other than "" and "1" joined by "*", or "1" when none is left."""
    return "*".join(f for f in factors if f not in ("", "1")) or "1"


class SemiAlgSystem:
    """Union-of-branches description at a fixed folding level.

    g is the level's fold of f; orders, the lattice points of f's
    exponent hull, give one candidate each.  The module docstring shows
    why the order of every certified peak is among them.
    """

    __slots__ = ("level", "nvars", "candidates", "_table")

    def __init__(self, level, g: LaurentPoly, orders):
        self.level = level
        self.nvars = g.nvars
        self._table = TermTable(g, level)
        scale = 1 << (level * g.nvars)
        sq = dict(zip(self._table.exponents, self._table.sq))
        scaled = [(o, tuple(scale * v for v in o)) for o in sorted(orders, key=_grade_key)]
        self.candidates = tuple(Candidate(o, s, sq.get(s, Fraction(0))) for o, s in scaled)

    # -- point queries ----------------------------------------------------

    def certify_log(self, w):
        """Component order when some branch holds at log point w, else None."""
        nums, den = point_numerators(w, self.nvars)
        ok, idx, _ = self._table.classify([nums], den)
        return self._table.orders[idx[0]] if ok[0] else None

    # -- rasterization ------------------------------------------------------

    def rasterize(self, lo, hi, res):
        """Sample the magnitude-space square [lo, hi]^2 on a res x res lattice.

        The square lies in the open positive orthant, and lo and hi must
        be nonzero and finite as floats; sample i along either axis sits
        at lo + i*(hi - lo)/(res - 1), endpoints included, rounded once
        to a float.  Membership runs in log coordinates, so huge
        exponents cannot overflow, with every sample of the lattice in
        one ``float_classify`` batch; an exponent past the float range is
        a ValueError.  Two variables only.
        """
        check_raster(self.nvars, lo, hi, res)
        lo, hi = Fraction(lo), Fraction(hi)
        w = np.log(_sample_axis(lo, hi, res))
        wmat = np.column_stack([np.repeat(w, res), np.tile(w, res)])
        mask = ~self._table.float_classify(wmat)[0].reshape(res, res)
        return Raster(lo, hi, mask)

    # -- presentation -------------------------------------------------------

    def to_json(self):
        obj = {
            "level": self.level,
            "candidates": [
                {
                    "order": list(c.order),
                    "scaledExponent": list(c.scaled_exponent),
                    "sqMagnitude": str(c.sq_magnitude),
                }
                for c in self.candidates
            ],
            "baseTerms": [
                {"exponent": list(e), "sqMagnitude": str(q)}
                for e, q in zip(self._table.exponents, self._table.sq)
            ],
        }
        return json.dumps(obj, indent=2)

    def pretty(self):
        n = self.nvars
        lines = [
            f"level {self.level} certificate region, coordinates x1..x{n} > 0",
            "g(x) = "
            + " + ".join(
                _product(magnitude_string(q), _format_monomial(e, "x"))
                for e, q in zip(self._table.exponents, self._table.sq)
            ),
            "union over candidate orders of the branch where one term outweighs the rest:",
        ]
        for c in self.candidates:
            if c.sq_magnitude == 0:
                lines.append(f"  order {c.order}: no term at exponent {c.scaled_exponent}, empty branch")
            else:
                magnitude = magnitude_string(c.sq_magnitude)
                branch = _product("2", magnitude, _format_monomial(c.scaled_exponent, "x"))
                lines.append(f"  order {c.order}: {branch} > g(x)")
        return "\n".join(lines)


def semialg_description(f: LaurentPoly, level):
    """Build the level-k region description for f.

    The candidates are every lattice point of f's exponent hull, the
    complete set of possible component orders.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no complement to describe")
    level = int(level)
    if level < 1:
        raise ValueError("level must be at least 1")
    # fold first: its term budget also bounds the hull's box scan
    g = quick_cyclic_resultant(f, level)
    return SemiAlgSystem(level, g, newton(f))
