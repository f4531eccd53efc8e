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
classifier bit for bit; rasterization samples magnitudes whose logs are
irrational and runs the same margin test on float log coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cycres import DEFAULT_MAX_TERMS, quick_cyclic_resultant
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


@dataclass(frozen=True)
class Raster:
    """Point-sampled membership image of a system over a magnitude box.

    mask[i, j] is True where the approximation holds at sample
    (axes[0][i], axes[1][j]).  Two rasters are equal when their axes
    and masks are.
    """

    axes: tuple[tuple[Fraction, ...], ...]
    mask: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Raster):
            return NotImplemented
        return self.axes == other.axes and np.array_equal(self.mask, other.mask)


def _axis_pair(v, name):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"{name} must be a scalar or a pair")
        return tuple(Fraction(x) for x in v)
    return (Fraction(v), Fraction(v))


def check_raster(nvars, lo, hi, res):
    """(los, his, ress), the two axes' bounds and sample counts of a raster.

    Raises ValueError for what ``SemiAlgSystem.rasterize`` cannot draw;
    the command line calls it before it folds anything.
    """
    if nvars != 2:
        raise ValueError("rasterize draws 2-variable systems only")
    los = _axis_pair(lo, "lo")
    his = _axis_pair(hi, "hi")
    ress = tuple(int(r) for r in (res if isinstance(res, (tuple, list)) else (res, res)))
    if len(ress) != 2 or min(ress) < 2:
        raise ValueError("need at least 2 samples per axis")
    for a, b in zip(los, his):
        if a <= 0:
            raise ValueError("the box must lie in the open positive orthant")
        if b <= a:
            raise ValueError(f"axis range [{a}, {b}] needs lo < hi")
        try:
            fits = float(a) > 0 and math.isfinite(float(b))
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError("box bounds must be nonzero and finite as floats")
    return los, his, ress


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
        """Sample a magnitude-space box on a res1 x res2 point lattice.

        lo and hi bound an axis-aligned rectangle in the open positive
        orthant (scalars broadcast to both axes), and each bound must
        be nonzero and finite as a float; sample i along an axis sits
        at lo + i*(hi - lo)/(res - 1), endpoints included.  Membership
        runs in log coordinates, so huge exponents cannot overflow, with
        every sample of the lattice in one ``float_classify`` batch.
        Two variables only.
        """
        los, his, ress = check_raster(self.nvars, lo, hi, res)
        axes = tuple(
            tuple(a + i * (b - a) / (r - 1) for i in range(r))
            for a, b, r in zip(los, his, ress)
        )
        w1, w2 = (np.log(np.array([float(x) for x in ax])) for ax in axes)
        wmat = np.column_stack([np.repeat(w1, len(w2)), np.tile(w2, len(w1))])
        mask = ~self._table.float_classify(wmat)[0].reshape(ress)
        return Raster(axes, mask)

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


def semialg_description(f: LaurentPoly, level, *, max_terms=DEFAULT_MAX_TERMS):
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
    g = quick_cyclic_resultant(f, level, max_terms=max_terms)
    return SemiAlgSystem(level, g, newton(f))
