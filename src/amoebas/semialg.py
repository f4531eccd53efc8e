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

Most of a raster is certified a tile at a time, by the tile pass that
grids share, ``lopsided._certified_tiles``, over the float log sample
axis; only the samples of the other tiles are tested one by one.

Point queries reuse the same corner proof.  The log lattice
(Z / 8)^nvars cuts log space into cubes of side 1/8, and a query whose
inner products are exact floats looks its cube up among those its
system has proven: the second query in a cube tests the cube's corners
with ``lopsided._corner_peaks``, unless the first query there was not
certified, and when they share one peak every later query in the cube
returns that peak's order untested.  Such a query in a cube whose
corners prove nothing builds its one row of values and decides it by
``TermTable._lone_verdict``, the lone-row test a classify of that row
makes, without the batch machinery around it; other queries are
classified.

Samples proven inside the amoeba need not be tested at all.  When a
picture draws several levels, ``rasterize_levels`` proves them once,
before the first level: ``zerocount.lattice_inside`` finds the samples
w, their floats as exact reals, that lie in the amoeba of the input f.
The amoeba of every fold g of f is that of f, so at such a w no term of
g outweighs the others: g's exact margin, with its exact log
magnitudes, is at most 0.  The table's logb are each within epsilon =
``gaussian.half_ln_error`` of those, which moves the margin by at most
2*epsilon, and the margin ``_certify`` computes is within delta =
``lopsided._margin_error`` of the one at the table's logb, when the
exponents are exact floats.  So the computed margin is at most delta +
2*epsilon; when that is below TAU the sample is one the pointwise test
rejects, and a level leaves it uncertified untested.  At a level where
the bound does not hold, proven samples are tested as any other.  A
picture of one level is drawn without the proof: at 256 x 256 samples
the proof costs more than level 1 saves by it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cycres import quick_cyclic_resultant
from .gaussian import half_ln_error
from .gridsolver import MAX_GRID_POINTS
from .lopsided import (
    _EXACT_FLOAT,
    TAU,
    TermTable,
    _certified_tiles,
    _corner_peaks,
    _margin_error,
    point_numerators,
)
from .lopsided import peak_margins  # noqa: F401  (perfbench/spans.py wraps it here)
from .newton import newton
from .poly import ExponentVector, LaurentPoly, _format_monomial, _grade_key
from .zerocount import lattice_inside

# Query tiles are the cubes of side 1/_QUERY_TILE between the points of
# the log lattice (Z / _QUERY_TILE)^nvars.
_QUERY_TILE = 8

# Cells a system's tile dict holds before it is cleared.
_QUERY_TILES_CAP = 1 << 16

# A cell's entry after a certified first visit; a proven cell holds its
# peak, and -1 when its corners or its first visit prove nothing.
_SEEN = -2

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


def inside_samples(f, lo, hi, res):
    """(res, res) mask of the raster samples proven to lie in the amoeba of f.

    The samples are ``SemiAlgSystem.rasterize``'s for the same box and
    res.
    """
    check_raster(f.nvars, lo, hi, res)
    return lattice_inside(f, _log_axis(Fraction(lo), Fraction(hi), res))


def rasterize_levels(systems, lo, hi, res):
    """The ``rasterize`` of each of several levels of one f over one box.

    Two or more levels share one ``inside_samples`` proof, handed to
    each level's rasterize; one level is drawn without it.
    """
    f = systems[0].f
    if any(system.f != f for system in systems):
        raise ValueError("the levels must describe one polynomial")
    inside = inside_samples(f, lo, hi, res) if len(systems) > 1 else None
    return [system.rasterize(lo, hi, res, inside) for system in systems]


def _log_axis(lo: Fraction, hi: Fraction, res):
    """The log of each ``_sample_axis`` float."""
    return np.log(_sample_axis(lo, hi, res))


def _sample_axis(lo: Fraction, hi: Fraction, res):
    """Floats of lo + i*(hi - lo)/(res - 1), i < res, each rounded once.

    Sample i is (num0 + i*step) / den in integers, and int / int rounds
    correctly, as float(Fraction) does.
    """
    den = lo.denominator * hi.denominator * (res - 1)
    num0 = lo.numerator * hi.denominator * (res - 1)
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return np.array([(num0 + i * step) / den for i in range(res)])


def _rejects_inside(table, w):
    """Whether the pointwise test rejects every sample proven inside.

    True when the table's exponents are exact floats and delta +
    2*epsilon < TAU over the log sample axis w, delta being
    ``_margin_error`` and epsilon ``half_ln_error`` of the largest
    |logb|: the module docstring shows that the computed margin at a
    sample in the amoeba is then below TAU.
    """
    if table._row_bound >= _EXACT_FLOAT:
        return False
    wmax = float(np.abs(w).max())
    return _margin_error(table, wmax) + 2 * half_ln_error(float(np.abs(table.logb).max())) < TAU


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
    """Union-of-branches description of f at a fixed folding level.

    g is the level's fold of f; the lattice points of f's exponent hull
    give one candidate each.  The module docstring shows why the order
    of every certified peak is among them.
    """

    __slots__ = ("f", "level", "nvars", "candidates", "_table", "_tiles")

    def __init__(self, f: LaurentPoly, level, g: LaurentPoly):
        self.f = f
        self.level = level
        self.nvars = g.nvars
        self._table = TermTable(g, level)
        scale = 1 << (level * g.nvars)
        sq = dict(zip(self._table.exponents, self._table.sq))
        scaled = [(o, tuple(scale * v for v in o)) for o in sorted(newton(f), key=_grade_key)]
        self.candidates = tuple(Candidate(o, s, sq.get(s, Fraction(0))) for o, s in scaled)
        self._tiles = {}

    # -- point queries ----------------------------------------------------

    def certify_log(self, w):
        """Component order when some branch holds at log point w, else None.

        The order is the one a ``TermTable.classify`` of w gives.  When
        w's denominator is below 2^53 and its largest |numerator| below
        the table's ``_lone_limit``, its inner products are exact floats,
        and w is looked up in its query tile, the cell
        floor(w * _QUERY_TILE) of the lattice.  A query in a proven cell
        returns the order of the cell's peak untested; the others build
        their row by ``TermTable._lone_values`` and decide it by
        ``_lone_verdict``, the operations a classify of that one row
        makes.  The first query in a cell is only recorded, the second
        proves the cell by ``_tile_peak`` unless the first was not
        certified, and the cells are cleared when _QUERY_TILES_CAP of
        them are held.  All other queries are classified.  Threads that
        query one system at once may prove a cell twice, but a cell only
        ever holds _SEEN, -1 or a proven peak.
        """
        nums, den = point_numerators(w, self.nvars)
        table = self._table
        if den >= _EXACT_FLOAT or max(map(abs, nums)) >= table._lone_limit:
            ok, idx, _ = table.classify([nums], den)
            return table.orders[idx[0]] if ok[0] else None
        tiles = self._tiles
        # Python ints floor negative coordinates down
        cell = tuple([n * _QUERY_TILE // den for n in nums])
        peak = tiles.get(cell)
        if peak == _SEEN:
            peak = tiles[cell] = self._tile_peak(cell)
        if peak is not None and peak >= 0:
            return table.orders[peak]
        lopsided, i = table._lone_verdict(table._lone_values(nums, den), TAU)
        # a peak without an order is never certified
        order = table.orders[i] if lopsided else None
        if peak is None:
            if len(tiles) >= _QUERY_TILES_CAP:
                tiles.clear()
            # a tile that holds an uncertified point is never proven
            tiles[cell] = -1 if order is None else _SEEN
        return order

    def _tile_peak(self, cell):
        """The peak every point of the query tile cell is certified with, else -1.

        The tile's 2^nvars corners, (cell + offset) / _QUERY_TILE with
        each offset 0 or 1, go through ``lopsided._corner_peaks`` at the
        tile's largest |corner| coordinate; ``lopsided``'s module
        docstring shows that when they share one peak, every point of the
        tile whose inner products are exact floats is certified with it.
        -1 when the corners' own inner products may not be exact.
        """
        table = self._table
        top = max(max(abs(c), abs(c + 1)) for c in cell)
        if top >= table._lone_limit:
            return -1
        corners = list(product(*[(c, c + 1) for c in cell]))
        peaks = _corner_peaks(
            table, lambda rows: table.values(rows, _QUERY_TILE), corners, top / _QUERY_TILE
        ).tolist()
        return peaks[0] if peaks.count(peaks[0]) == len(peaks) else -1

    # -- rasterization ------------------------------------------------------

    def rasterize(self, lo, hi, res, inside=None):
        """Sample the magnitude-space square [lo, hi]^2 on a res x res lattice.

        The square lies in the open positive orthant, and lo and hi must
        be nonzero and finite as floats; sample i along either axis sits
        at lo + i*(hi - lo)/(res - 1), endpoints included, rounded once
        to a float.  Membership runs in log coordinates, so huge
        exponents cannot overflow; an exponent past the float range is a
        ValueError.  Two variables only.

        The mask is the one a ``float_classify`` of every sample would
        give, bit for bit.  ``lopsided._certified_tiles`` marks the
        samples whose tile its corners certify whole; inside, when
        given, must be ``inside_samples(self.f, lo, hi, res)``, and its
        samples stay uncertified untested while ``_rejects_inside``
        holds; the samples left go through ``float_classify`` in one
        batch.
        """
        check_raster(self.nvars, lo, hi, res)
        if inside is not None and not (
            isinstance(inside, np.ndarray) and inside.dtype == bool and inside.shape == (res, res)
        ):
            raise ValueError("inside must be a (res, res) bool mask")
        lo, hi = Fraction(lo), Fraction(hi)
        w = _log_axis(lo, hi, res)
        table = self._table
        mask = _certified_tiles(table, table.float_values, w, 2, float(np.abs(w).max())) < 0
        skip = inside is not None and _rejects_inside(table, w)
        todo = np.flatnonzero(mask & ~inside if skip else mask)
        if len(todo):
            # numpy multiplies a lone row by another BLAS routine
            i, j = np.divmod(np.repeat(todo, 2) if len(todo) == 1 else todo, res)
            ok = table.float_classify(np.column_stack([w[i], w[j]]))[0]
            mask.flat[todo] = ~ok[: len(todo)]
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
    return SemiAlgSystem(f, level, quick_cyclic_resultant(f, level))
