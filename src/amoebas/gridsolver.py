"""Classify a square grid of log-space points by escalating levels.

Every grid point starts unknown.  Level 0 tests the input polynomial
itself; each further level tests the cyclic product that folds in twice
as many root-of-unity substitutions per variable, whose certified
region shrinks toward the true log image.  Points certified at some
level are removed with their component order; points that survive every
level are presumed to lie on or near the amoeba.

Level 0 tests every point, so most of them are certified a tile at a
time: ``lopsided._certified_tiles`` tests the corners of tiles of 8
steps per side, and a tile whose corners all pass with one peak, by a
margin that covers the float error, holds only points the pointwise
test certifies with that peak.  Its proof needs the grid's inner
products to be exact floats, so a grid whose denominator or numerators
are too large for that, and every later level, whose pending points
are few, test each point one by one.

Lopsidedness only ever certifies points outside the amoeba.  So right
after level 0, ``zerocount.lattice_inside`` proves some of the pending
points inside it (their counts of zeros differ between two angles), on
the lattice of the grid's axis values, each rounded to a float once.
No level could certify those, so they stop escalating and keep the
verdict "not certified", exactly as if every level had tested them.

A grid is lo + m*step on every axis, the box ``amoeba --box LO HI
--step S`` names, and has at most ``MAX_GRID_POINTS`` points; each
level's fold is held to ``cycres.MAX_TERMS``.  Grids are rational so the
canonical integer inner-product pipeline in ``lopsided`` applies: one
common denominator serves the whole grid.
Each level hands its table every pending point in one batch; the table
chunks the batch and runs the chunks on its worker threads, and the
verdicts do not depend on either.

Verdicts stay columnar from classification to output: a
``GridVerdicts`` holds each point's certifying level and peak term as
integer arrays, and ``MembershipRecord`` objects are built only when it
is iterated.  The writers format each last-axis value followed by each
distinct verdict once, and write at most one last-axis line of points
at a time.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cycres import quick_cyclic_resultant
from .lopsided import _EXACT_FLOAT, TermTable, _certified_tiles, choose_level
from .poly import LaurentPoly
from .zerocount import lattice_inside

MAX_GRID_POINTS = 10**7  # points of a grid, and samples of a raster

DEFAULT_KMAX = 3

# Points per writer call, so a long last-axis line (a 1-variable grid is
# one) is not held as one string beside its preformatted ends.
_WRITE_POINTS = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """Square rational grid: lo + m*step on each of nvars axes, inclusive of hi."""

    lo: Fraction
    hi: Fraction
    step: Fraction
    nvars: int

    def __post_init__(self):
        for name in ("lo", "hi", "step"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.nvars < 1:
            raise ValueError("a grid needs at least one axis")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.hi <= self.lo:
            raise ValueError(f"axis range [{self.lo}, {self.hi}] needs lo < hi")
        if (self.hi - self.lo) % self.step != 0:
            raise ValueError(f"step {self.step} does not evenly divide [{self.lo}, {self.hi}]")

    @property
    def count(self):
        """Points per axis."""
        return int((self.hi - self.lo) / self.step) + 1

    @property
    def npoints(self):
        return self.count**self.nvars

    def axis_values(self):
        return [self.lo + m * self.step for m in range(self.count)]


def _points(spec):
    return product(spec.axis_values(), repeat=spec.nvars)


def _grid_axis(spec, den):
    """Integer numerators over den of the axis values, ascending.

    int64 when they fit, Python ints (dtype object) otherwise, which
    ``TermTable.values`` sends down its exact route.
    """
    axis = list(range(int(spec.lo * den), int(spec.hi * den) + 1, int(spec.step * den)))
    try:
        return np.array(axis, dtype=np.int64)
    except OverflowError:
        return np.array(axis, dtype=object)


def _grid_rows(spec, den):
    """Integer numerators over den of every grid point, shape (N, nvars).

    Row major (last axis varies fastest), of ``_grid_axis``'s dtype.
    """
    grids = np.meshgrid(*[_grid_axis(spec, den)] * spec.nvars, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _tile_peaks(table, spec, den):
    """Per point, row major, its peak when a certified tile holds it, else -1.

    The tiles are ``lopsided._certified_tiles``'s over the axis
    numerators.  Its proof needs each value float(I)/float(den) + logb
    with I an exact float, so no tile is certified unless den and the
    row bound times the largest |numerator| are below 2^53; grids of
    huge points or denominators are tested point by point.
    """
    axis = _grid_axis(spec, den)
    big = max(abs(int(axis[0])), abs(int(axis[-1])))
    if den >= _EXACT_FLOAT or table._row_bound * big >= _EXACT_FLOAT:
        return np.full(spec.npoints, -1, dtype=np.int8)
    # big / den rounds to nearest; one step up bounds every |coordinate|
    wmax = math.nextafter(big / den, math.inf)
    return _certified_tiles(table, lambda rows: table.values(rows, den), axis, spec.nvars, wmax).ravel()


@dataclass(frozen=True)
class MembershipRecord:
    """Verdict for one grid point.

    in_amoeba means no level produced a certificate, so the point is
    presumed on or near the amoeba.  Certified points carry the first
    level that worked and the complement component's order.
    """

    point: tuple[Fraction, ...]
    in_amoeba: bool
    level: int | None
    order: tuple[int, ...] | None

    def __post_init__(self):
        if self.in_amoeba != (self.level is None) or self.in_amoeba != (self.order is None):
            raise ValueError("level and order must be present exactly when certified")


class GridVerdicts:
    """Verdicts of a whole grid in row-major order, held as columns.

    level[i] is the first level that certified point i, or -1 when none
    did; peak[i] is then the dominating term of that level's table, so
    the point's order is orders[level[i]][peak[i]].  Iteration builds
    ``MembershipRecord`` objects in row-major order.
    """

    __slots__ = ("spec", "level", "peak", "orders")

    def __init__(self, spec, level, peak, orders):
        self.spec = spec
        self.level = level
        self.peak = peak
        self.orders = orders

    def __iter__(self):
        verdicts, inverse = self.classes()
        for point, i in zip(_points(self.spec), inverse.tolist()):
            level, order = verdicts[i]
            yield MembershipRecord(point, level is None, level, order)

    def classes(self):
        """Distinct verdicts and each point's index into them.

        Returns (verdicts, inverse): verdicts is a list of (level, order)
        pairs, (None, None) for presumed amoeba points, in order of level
        and then peak, and verdicts[inverse[i]] is point i's.
        """
        # slot 0 is "never certified", then level k's peak p is slot
        # 1 + (terms of the levels below k) + p: a presence table no
        # larger than the orders held, so no point's slot is sorted
        every = [(None, None)] + [(k, o) for k, orders in enumerate(self.orders) for o in orders]
        starts = np.cumsum([1, *map(len, self.orders)])
        slots = starts[self.level]
        slots += self.peak
        slots[self.level < 0] = 0  # level -1 read the last start
        seen = np.zeros(len(every), dtype=bool)
        seen[slots] = True
        # every slot is in range; the default mode would buffer a copy
        np.take(np.cumsum(seen) - 1, slots, out=slots, mode="clip")
        return [every[s] for s in np.flatnonzero(seen).tolist()], slots


def approximate_amoeba(
    f: LaurentPoly,
    spec: GridSpec,
    *,
    kmax=None,
    eps=None,
):
    """Classify every grid point, escalating levels until certified.

    Exactly one of kmax and eps may be given; eps picks the level via
    ``choose_level`` from the polynomial's degree.  Returns a
    ``GridVerdicts``, one verdict per point in grid row-major order.

    Level 0 certifies the points of certified tiles (``_tile_peaks``)
    with the level and peak the pointwise test gives them, and tests
    only the others.  Points that level 0 leaves pending and that
    ``lattice_inside`` proves to lie in the amoeba are not tested at
    levels 1..kmax.  No level can certify them, so their verdict (level
    -1, CSV bit 1: no level certified it) is the one the full escalation
    gives.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial fills all of log space")
    if f.nvars != spec.nvars:
        raise ValueError(f"grid is {spec.nvars}-dimensional, polynomial has {f.nvars} variables")
    if eps is not None and kmax is not None:
        raise ValueError("give either kmax or eps, not both")
    if eps is not None:
        kmax = choose_level(f.nvars, _shifted_degree(f), eps)
    if kmax is None:
        kmax = DEFAULT_KMAX
    kmax = int(kmax)
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")

    if spec.npoints > MAX_GRID_POINTS:
        raise ValueError(f"grid has {spec.npoints} points, limit is {MAX_GRID_POINTS}")
    den = math.lcm(spec.lo.denominator, spec.step.denominator)
    rows = _grid_rows(spec, den)
    # zero counts need a second variable, and axis floats whose bounds
    # hold: no value past 2^1000 in size, none rounded below the normals
    provable = f.nvars > 1 and den.bit_length() <= 1000 and max(-spec.lo, spec.hi) < 2**1000

    level = np.full(len(rows), -1, dtype=np.int64)
    peak = np.zeros(len(rows), dtype=np.int64)
    orders = []
    for k in range(kmax + 1):
        g = f if k == 0 else quick_cyclic_resultant(f, k)
        table = TermTable(g, k)
        if k == 0:
            # certified tiles hold only points level 0 certifies one by
            # one, with the same peak; the rest are tested point by point
            tiled = _tile_peaks(table, spec, den)
            in_tile = tiled >= 0
            level[in_tile] = 0
            peak[in_tile] = tiled[in_tile]
            pending = np.flatnonzero(~in_tile)
        ok, idx, lopsided = table.classify(rows[pending], den)
        dropped = int(np.count_nonzero(lopsided)) - int(np.count_nonzero(ok))
        if dropped:
            warnings.warn(
                f"level {k}: dropped {dropped} certificate(s) whose dominating "
                "exponent carries no component order"
            )
        hit = pending[ok]
        level[hit] = k
        peak[hit] = idx[ok]
        orders.append(table.orders)
        pending = pending[~ok]
        if k == 0 and kmax and pending.size and provable:
            # proven amoeba points: no level could ever certify them.  The
            # lattice axis is each num/den rounded once, by Python's
            # correctly rounded int / int
            w = np.array([num / den for num in _grid_axis(spec, den).tolist()])
            pending = pending[~lattice_inside(f, w).ravel()[pending]]
        if not pending.size:
            break
    return GridVerdicts(spec, level, peak, tuple(orders))


def _shifted_degree(f):
    # the level bound wants the degree after the exponents are shifted
    # into the nonnegative orthant; shifting multiplies by a monomial
    # and does not move the amoeba
    mins = [f.exponent_range(v)[0] for v in range(1, f.nvars + 1)]
    return max(sum(e[i] - mins[i] for i in range(f.nvars)) for e in f.terms)


def _write_lines(records, stream, head, fmt, sep, tail):
    """Write head, the sep-joined fmt of the coordinates and the verdict's
    tail for every point, row major, at most _WRITE_POINTS points of one
    last-axis line per write.

    Each pair of a last-axis value and a verdict that some point has is
    formatted once, as the value followed by the verdict's tail, so a
    write is one ``str.join`` of these ends with the line's start
    between them, gathered from an object array with no int per point.
    Only the pairs that occur are formatted: a 1-variable grid has one
    line, where each pair occurs once, and formatting every pair would
    hold len(tails) strings per point.
    """
    spec = records.spec
    count = spec.count
    # one Fraction at a time, so that only the strings are kept
    axis = [fmt(spec.lo + m * spec.step) for m in range(count)]
    verdicts, inverse = records.classes()
    tails = [tail(level, order) for level, order in verdicts]
    t = len(tails)
    # each point's pair, value index * t + verdict index, then the pair's
    # index among those that occur, by a presence table as in classes()
    lines = inverse.reshape(-1, count)
    lines += np.arange(count) * t
    seen = np.zeros(count * t, dtype=bool)
    seen[inverse] = True
    pairs = np.flatnonzero(seen)
    # the index table is freed before any string is built
    np.take(np.cumsum(seen) - 1, inverse, out=inverse, mode="clip")
    ends = np.array([axis[pair // t] + tails[pair % t] for pair in pairs.tolist()], dtype=object)
    for prefix, line in zip(product(axis, repeat=spec.nvars - 1), lines):
        start = head + "".join(v + sep for v in prefix)
        for first in range(0, count, _WRITE_POINTS):
            # the leading "" puts start before the first end too
            piece = ends[line[first : first + _WRITE_POINTS]].tolist()
            piece.insert(0, "")
            stream.write(start.join(piece))


def records_to_csv(records, stream):
    """Columns w1..wn, bit, level, order1..ordern; rationals as strings.

    bit is 1 for presumed amoeba points.  level and order columns are
    empty for them.  records is an ``approximate_amoeba`` result.  Lines
    end in CRLF, as ``csv.writer`` ends them.
    """
    n = records.spec.nvars
    header = [f"w{d+1}" for d in range(n)] + ["bit", "level"] + [f"order{d+1}" for d in range(n)]
    stream.write(",".join(header) + "\r\n")

    def tail(level, order):
        if level is None:
            return ",1," + "," * n + "\r\n"
        return ",0," + ",".join(map(str, (level, *order))) + "\r\n"

    _write_lines(records, stream, "", str, ",", tail)


def records_to_jsonl(records, stream):
    """One JSON object per line with point, inAmoeba, level, order.

    Each line is ``json.dumps`` of that object.
    """
    def tail(level, order):
        rest = json.dumps(
            {"inAmoeba": level is None, "level": level, "order": None if order is None else list(order)}
        )
        return "], " + rest[1:] + "\n"

    _write_lines(records, stream, '{"point": [', lambda x: json.dumps(str(x)), ", ", tail)
