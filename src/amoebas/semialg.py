"""Semialgebraic description of one level of the certified complement.

In magnitude coordinates x_i = |z_i| > 0 the level-k certificate region
is a finite union of basic sets: writing g(x) for the sum of the term
magnitudes of the folded product, a point is certified with component
order alpha exactly when the single term carrying exponent s*alpha,
s = 2^(k*nvars), outweighs all the others together:

    2 * |b_{s alpha}| * x^(s alpha) > g(x),    x in the open orthant.

Candidate orders range over the lattice points of the input's exponent
hull; a certified point's dominating exponent is always s times one of
them, so restricting to candidates loses nothing.  Term magnitudes are
carried exactly as squared rationals and never rounded in the data
model.  Point queries at rational log coordinates reuse the canonical
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
from .lopsided import TermTable, point_numerators, pool_map, thread_count
from .lopsided import peak_margins  # noqa: F401  (perfbench/spans.py wraps it here)
from .newton import newton
from .poly import ExponentVector, LaurentPoly, _grade_key
from .render import crossed_cells


@dataclass(frozen=True)
class AbsoluteTerm:
    exponent: ExponentVector
    sq_magnitude: Fraction


class AbsolutePoly:
    """Magnitude image of a polynomial: exponents with |coef|^2 exact."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = tuple(terms)

    @classmethod
    def from_poly(cls, p: LaurentPoly):
        if p.is_zero:
            raise ValueError("the zero polynomial has no magnitude image")
        return cls(
            p.nvars,
            (AbsoluteTerm(e, c.abs_squared()) for e, c in p.sorted_terms()),
        )


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

    @property
    def boundary(self):
        """Exact centers of the mask's ``render.crossed_cells``, row major."""
        a1, a2 = self.axes
        i, j, _ = crossed_cells(self.mask)
        return tuple(
            ((a1[p] + a1[p + 1]) / 2, (a2[q] + a2[q + 1]) / 2)
            for p, q in zip(i.tolist(), j.tolist())
        )


def _axis_pair(v, name):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"{name} must be a scalar or a pair")
        return tuple(Fraction(x) for x in v)
    return (Fraction(v), Fraction(v))


def magnitude_string(sq: Fraction):
    """Exact rendering of sqrt(sq): a rational when possible."""
    if sq == 0:
        return "0"
    num = math.isqrt(sq.numerator)
    den = math.isqrt(sq.denominator)
    if num * num == sq.numerator and den * den == sq.denominator:
        return str(Fraction(num, den))
    return f"sqrt({sq})"


def _x_monomial(e):
    parts = []
    for d, p in enumerate(e):
        if p == 0:
            continue
        parts.append(f"x{d+1}" if p == 1 else f"x{d+1}^{p}")
    return "*".join(parts) if parts else "1"


class SemiAlgSystem:
    """Union-of-branches description at a fixed folding level.

    table is the level's ``TermTable``; its orders are limited to the
    candidate orders, so a certified peak is always one of the branches.
    """

    __slots__ = ("level", "nvars", "base", "candidates", "_table")

    def __init__(self, level, base: AbsolutePoly, candidates, table: TermTable):
        self.level = level
        self.nvars = base.nvars
        self.base = base
        self.candidates = tuple(candidates)
        self._table = table

    # -- point queries ----------------------------------------------------

    def certify_log(self, w):
        """Component order when some branch holds at log point w, else None."""
        nums, den = point_numerators(w, self.nvars)
        ok, idx, _ = self._table.classify([nums], den)
        return self._table.orders[idx[0]] if ok[0] else None

    def contains_log(self, w):
        """True when w is NOT certified: the point of the approximation."""
        return self.certify_log(w) is None

    def contains(self, x):
        """Magnitude-space membership; x must be strictly positive floats."""
        coords = []
        for v in x:
            v = float(v)
            if not v > 0:
                raise ValueError("magnitude coordinates must be positive")
            coords.append(Fraction(math.log(v)))
        return self.contains_log(coords)

    # -- rasterization ------------------------------------------------------

    def rasterize(self, lo, hi, res, threads=None):
        """Sample a magnitude-space box on a res1 x res2 point lattice.

        lo and hi bound an axis-aligned rectangle in the open positive
        orthant (scalars broadcast to both axes); sample i along an
        axis sits at lo + i*(hi - lo)/(res - 1), endpoints included.
        Membership runs in log coordinates, so huge exponents cannot
        overflow, and is mapped over rows of the lattice (AMOEBA_THREADS
        workers unless overridden) with the output assembled in index
        order.  Two variables only.
        """
        if self.nvars != 2:
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
        axes = tuple(
            tuple(a + i * (b - a) / (r - 1) for i in range(r))
            for a, b, r in zip(los, his, ress)
        )
        logs = [np.log(np.array([float(x) for x in ax])) for ax in axes]
        w2 = logs[1]

        def row(i):
            wmat = np.column_stack([np.full(len(w2), logs[0][i]), w2])
            return ~self._table.float_classify(wmat)[0]

        mask = np.array(pool_map(row, range(ress[0]), thread_count(threads)))
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
                {"exponent": list(t.exponent), "sqMagnitude": str(t.sq_magnitude)}
                for t in self.base.terms
            ],
        }
        return json.dumps(obj, indent=2)

    def pretty(self):
        n = self.nvars
        lines = [
            f"level {self.level} certificate region, coordinates x1..x{n} > 0",
            "g(x) = "
            + " + ".join(
                _x_monomial(t.exponent)
                if magnitude_string(t.sq_magnitude) == "1"
                else f"{magnitude_string(t.sq_magnitude)}*{_x_monomial(t.exponent)}"
                for t in self.base.terms
            ),
            "union over candidate orders of the branch where one term outweighs the rest:",
        ]
        for c in self.candidates:
            if c.sq_magnitude == 0:
                lines.append(f"  order {c.order}: no term at exponent {c.scaled_exponent}, empty branch")
            else:
                factors = ["2"]
                if (mag := magnitude_string(c.sq_magnitude)) != "1":
                    factors.append(mag)
                if (mono := _x_monomial(c.scaled_exponent)) != "1":
                    factors.append(mono)
                lines.append(f"  order {c.order}: {'*'.join(factors)} > g(x)")
        return "\n".join(lines)


def semialg_description(f: LaurentPoly, level, candidates=None, *, max_terms=DEFAULT_MAX_TERMS):
    """Build the level-k region description for f.

    candidates defaults to every lattice point of f's exponent hull,
    the complete set of possible component orders.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no complement to describe")
    level = int(level)
    if level < 1:
        raise ValueError("level must be at least 1")
    if candidates is None:
        orders = newton(f).lattice_points
    else:
        orders = [tuple(int(v) for v in o) for o in candidates]
        for o in orders:
            if len(o) != f.nvars:
                raise ValueError(f"candidate {o} has wrong dimension")
    if not orders:
        raise ValueError("no candidate orders")
    g = quick_cyclic_resultant(f, level, max_terms=max_terms)
    scale = 1 << (level * f.nvars)
    # by default every order the table finds is a hull lattice point:
    # g's exponents lie in scale * hull, so a divisible one is scale * a
    # lattice point of the hull
    table = TermTable(g, level, None if candidates is None else orders)
    sq = {e: c.abs_squared() for e, c in g.terms.items()}
    cands = [
        Candidate(o, tuple(scale * v for v in o), sq.get(tuple(scale * v for v in o), Fraction(0)))
        for o in sorted(orders, key=_grade_key)
    ]
    return SemiAlgSystem(level, AbsolutePoly.from_poly(g), cands, table)
