"""Lopsidedness certificates for points in log space.

A Laurent polynomial is lopsided at a point when one term's magnitude
strictly exceeds the sum of all the others.  No zero of the polynomial
can have that property, so lopsidedness at w certifies that w lies in
the complement of the log image of the zero set.  Tests run in log
space: the magnitude of a term becomes log|coef| + <exponent, w>, and
the comparison becomes a gap between the largest of those values and
the log-sum-exp of the rest.

A certificate also reveals which complement component the point sits
in.  When the tested polynomial folds together 2^level root-of-unity
substitutions per variable, the dominating exponent is 2^(level*nvars)
times the component's order vector, so dividing recovers the order.
A ``TermTable`` takes each term's exact squared magnitude, its log and
that division once, when it is built; grids, point queries, rasters and
the semialgebraic description all read it.  Its ``classify`` and
``float_classify`` take whole batches, cut them into chunks of about
CHUNK_CELLS values and map the chunks over ``pool_map``'s worker threads.

Scalar and batched queries share one float pipeline: inner products are
float(exact integer) / float(common denominator), and ties between
equal values resolve to the earliest term in graded-lex descending
order.  The exact integers come from a float64 BLAS product while every
product and partial sum stays below 2^53, where float64 is exact in any
summation order, and from Python ints past that.  So any BLAS routine
may compute them, the matrix-vector product of a lone row in
``TermTable._lone_values`` included, and only ``float_values``, whose
float products round, needs batches of two or more rows.  A point is
therefore classified identically no matter which route tested it, how
the batch was chunked or how many worker threads ran the chunks.

Most verdicts need only the peak p and the second-largest value m2
(the gap bracket).  The computed margin is p - (m2 + log S), where S
is ``_log_sum``'s row sum of exp(max(v - m2, _EXP_FLOOR)) over the row
with the peak's value at -inf: t - 1 values of at most 1, one of them
exp(0) = 1, and the peak's exp(-700).  Round-to-nearest is monotone,
so S >= 1.  A partial sum that holds k >= 1 of the other values stays
at most k, with or without the peak's exp(-700): floats near k are
spaced far wider than exp(-700), so a sum below k stays at most k and
k itself absorbs it.  So S <= t - 1.  The log is accurate to a few
ulps and keeps log(x >= 1) >= 0, so 0 <= log S < L = log(t - 1) +
1e-6.  By monotone rounding again, p - m2 <= TAU rejects and
p - (m2 + L) > TAU accepts, each with the verdict the full sum would
give, bit for bit.  Only the rows in between, and rows whose p or m2
is not finite, take the exp.

Every route takes those margins from ``_log_sum``: a batch's band rows
in ``_certify``, a lone row in ``TermTable._lone_verdict`` and the
margins ``peak_margins`` reports.  numpy sums each row of a
C-contiguous chunk on its own, as it sums that row alone, and its log
of a float64 scalar equals its vectorised log, so a verdict depends
neither on the route nor on the chunking or the thread count.  A lone
row, as a point query tests, is decided by ``_lone_verdict``:
``_certify`` calls it on a batch of one row, and ``semialg``'s point
queries enter it directly with the row ``_lone_values`` builds, past
``classify`` and ``values``.  It takes the bracket edges and the final
subtractions in Python floats, the same IEEE double operations as a
batch.  The exp arguments are raised to _EXP_FLOOR = -700 because
numpy's exp is many times slower on arguments whose result underflows.

Grids and rasters certify most of their lattice points a tile at a
time, in ``_certified_tiles``, and point queries answer from the tiles
of the log lattice that ``semialg`` proves as they are visited; both
test the corners by ``_corner_peaks``.  For a term j the margin

    margin_j(w) = v_j(w) - log sum_{i != j} exp v_i(w)

is concave in w, each v_i being linear (Boyd and Vandenberghe, Convex
Optimization, 3.1.5), so on a box it is at least its smallest value at
the box's corners.  Take the v_i exactly, from the table's float logb
and exponents and the point as a real, and let delta = ``_margin_error``
bound how far the margin ``_certify`` computes lies from that exact
one.  The bound holds on both value routes, as no summand of a computed
value is rounded more than three times: ``values`` divides an exact
float(I) by float(den) and adds logb, and ``float_values`` of two
variables adds logb to a dot of two products.  When the corners of a
tile all pass ``_certify`` at TAU + 2*delta with one peak j, the exact
margin_j exceeds TAU + delta at the corners, and so on the whole tile.
At each of its points every computed value v_i, within delta / 2 of
exact, then lies below the computed v_j, so j is the computed peak, and
the computed margin exceeds TAU: the pointwise test certifies the point
with peak j, and so with the same order.  The points need not be
lattice points.  A point query's values come from ``_lone_values`` at
the point's own numerators and denominator, the same three roundings
as ``values`` when the denominator and the row bound times the largest
|numerator| are below 2^53, and its coordinates are at most the
tile's largest |corner| coordinate in magnitude, the wmax its delta
is taken at.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .gaussian import half_ln_error, half_ln_fraction
from .poly import ExponentVector, LaurentPoly

# Certification threshold for the log gap.  Strictly positive so float
# noise near the boundary can never produce a false certificate; small
# enough (about 1e-6) to be invisible at plotting resolution.
TAU = 2.0 ** -20

LEVEL_CAP = 30

# Integers below this in magnitude are exact in float64, and so are
# their products and sums while those stay below it too.
_EXACT_FLOAT = 2 ** 53

# Steps per side of a lattice tile whose corners may certify it whole.
TILE = 8

# Every band row raises each exp argument to this floor: exp(-700) is
# a normal float, where numpy's exp is fast, and adds under 1e-304 per
# term to a sum of at least 1.
_EXP_FLOOR = -700.0

# Values per classify chunk, rows times terms, so each of a chunk's
# float matrices stays near 512 KB however many terms the level has.
CHUNK_CELLS = 1 << 16


class CertificateError(ValueError):
    """A certificate violated an invariant it should hold by construction."""


@dataclass(frozen=True)
class Certificate:
    """Outcome of one lopsidedness test.

    margin is log(peak magnitude) - log(sum of the other magnitudes);
    the point is certified when margin > TAU.  dominant is the exponent
    of the peak term whether or not the test passed.
    """

    lopsided: bool
    dominant: ExponentVector
    margin: float
    level: int


def point_numerators(w, nvars):
    """Rational point -> (integer numerators, common denominator)."""
    ratios = [(x if isinstance(x, Fraction) else Fraction(x)).as_integer_ratio() for x in w]
    if len(ratios) != nvars:
        raise ValueError(f"point has {len(ratios)} coordinates, expected {nvars}")
    nums, dens = zip(*ratios) if ratios else ((), (1,))
    den = dens[0]
    if dens.count(den) != len(dens):
        den = math.lcm(*set(dens))
        nums = tuple(n * (den // d) for n, d in ratios)
    return nums, den


def exponent_order(e, level):
    """e / 2^(level*len(e)) coordinatewise, or None when it does not divide."""
    div = 1 << (level * len(e))
    return tuple(v // div for v in e) if all(v % div == 0 for v in e) else None


class TermTable:
    """Precomputed per-term data for repeated lopsidedness queries.

    level is the fold level of p.  Term j has exponent exponents[j] and
    exact squared magnitude sq[j], in graded-lex descending order, and
    logb[j] is ln sqrt(sq[j]).  orders[j] is the complement-component
    order that term j stands for when it dominates: its exponent divided
    by 2^(level*nvars), or None when that does not divide.
    """

    __slots__ = (
        "nvars", "level", "exponents", "sq", "logb", "orders",
        "_has_order", "_row_bound", "_fmat", "_lone_limit",
    )

    def __init__(self, p: LaurentPoly, level=0):
        if p.is_zero:
            raise ValueError("the zero polynomial has no lopsided points")
        terms = p.sorted_terms()
        self.nvars = p.nvars
        self.level = level
        self.exponents = tuple(e for e, _ in terms)
        self.sq = tuple(c.abs_squared() for _, c in terms)
        self.logb = np.array([half_ln_fraction(q) for q in self.sq])
        self.orders = tuple(exponent_order(e, level) for e in self.exponents)
        self._has_order = np.array([o is not None for o in self.orders])
        # in Python ints: an int64 sum of magnitudes can wrap
        self._row_bound = max(sum(map(abs, e)) for e in self.exponents)
        try:
            self._fmat = np.array(self.exponents, dtype=np.float64)
        except OverflowError:
            self._fmat = None
        # a row whose largest |entry| is below this has its entries and
        # inner products below 2^53 (a constant table has row bound 0),
        # so ``_lone_values`` may compute them; no row when an exponent
        # does not fit a float
        self._lone_limit = 0 if self._fmat is None else -(-_EXACT_FLOAT // max(self._row_bound, 1))

    def __len__(self):
        return len(self.exponents)

    def values(self, rows, den):
        """Log magnitudes of every term at every row, shape (N, T).

        rows is a sequence of integer rows or an (N, nvars) array of them.
        Each inner product is float(exact integer) / float(den).  The
        float64 BLAS product computes the integers only when the row
        bound times the largest row entry is below 2^53, which makes every
        product and partial sum exact; Python ints compute them
        otherwise.  A lone row whose largest |entry| is below
        ``_lone_limit`` takes ``_lone_values``.  ValueError when an exact
        inner product or den does not fit a float.
        """
        try:
            if len(rows) == 1:
                # in Python ints: the abs of the np.int64 minimum wraps
                row = [int(x) for x in rows[0]]
                if max(map(abs, row), default=0) < self._lone_limit:
                    return self._lone_values(row, den)[None, :]
            try:
                m = np.asarray(rows, dtype=np.int64)
            except OverflowError:
                m = None
            # |int64 min| wraps to itself; its uint64 view is exact
            if (
                m is not None
                and self._fmat is not None
                and self._row_bound * int(np.abs(m).view(np.uint64).max(initial=0)) < _EXACT_FLOAT
            ):
                exact = m @ self._fmat.T
            else:
                exact = np.asarray(rows, dtype=object) @ np.array(self.exponents, dtype=object).T
            exact = np.asarray(exact, dtype=np.float64)
            exact /= float(den)
        except OverflowError:
            raise ValueError(
                "an inner product of a point with an exponent, or the point's "
                "denominator, is too large for a float"
            ) from None
        exact += self.logb
        return exact

    def _lone_values(self, row, den):
        """``values`` of one row whose inner products are exact floats, shape (T,).

        row holds ints whose largest |entry| is below ``_lone_limit``, and
        den is an int.  The matrix-vector product, the division by
        float(den) and the sum with logb are the same three IEEE
        operations ``values`` makes on a batch.
        """
        # ndarray.dot skips the matmul ufunc's dispatch; both are one gemv
        v = self._fmat.dot(np.array(row, dtype=np.float64))
        v /= float(den)
        v += self.logb
        return v

    def float_values(self, wmat):
        """Log magnitudes at float log points, shape (N, T).

        For sampled magnitudes whose logs are irrational the exact
        numerator pipeline does not apply; this path is still
        deterministic for a fixed input because every row of a matmul of
        two or more rows is computed alike.  logb is added into the
        product in place, one (N, T) array in all; IEEE addition
        commutes, so each value is bit for bit ``logb + product``.
        ValueError when an exponent does not fit a float.
        """
        if self._fmat is None:
            raise ValueError("an exponent is too large for a float")
        values = np.asarray(wmat, dtype=np.float64) @ self._fmat.T
        values += self.logb
        return values

    def classify(self, rows, den):
        """Batched test at rational rows: (certified, peak indices, lopsided).

        A row is lopsided when its peak term outweighs the rest by more
        than TAU, and certified when it is lopsided and the peak carries
        an order; orders[idx] is then its order.  ``peak_margins`` gives
        the margins themselves.  rows is a sequence or an array.
        """
        return self._batched(lambda part: self._certify(self.values(part, den)), rows)

    def float_classify(self, wmat):
        """``classify`` at float log points, see ``float_values``."""
        return self._batched(lambda part: self._certify(self.float_values(part)), wmat)

    def _batched(self, test, rows):
        """test(rows), run on chunks of about CHUNK_CELLS values each.

        The chunks split the rows evenly and hold at least two rows:
        numpy multiplies a single row by another BLAS routine, whose
        float products in ``float_values`` can differ in the last bit.
        ``values`` computes exact integers, which any BLAS routine gives
        alike, so only ``float_values`` needs that rule.  One chunk runs
        inline; more are mapped over ``pool_map`` and their (certified,
        peak, lopsided) columns joined in row order.
        """
        n = len(rows)
        count = min(-(-n * len(self) // CHUNK_CELLS), n // 2)
        if count <= 1:
            return test(rows)
        cuts = [n * i // count for i in range(count + 1)]
        outs = pool_map(test, [rows[a:b] for a, b in zip(cuts, cuts[1:])])
        return tuple(np.concatenate(column) for column in zip(*outs))

    def _certify(self, values, tau=TAU):
        """``peak_margins(values)[1] > tau`` per row, by the gap bracket.

        Rows whose gap p - m2 is at most tau are rejected, and rows where
        p - (m2 + log(t - 1) + 1e-6) exceeds tau are accepted, without
        an exp.  The rest, and rows whose gap is not finite (a non-finite
        p or m2), take their margin from ``_log_sum``, as ``peak_margins``
        does; the module docstring shows why every verdict equals the
        full margin's, for any tau.  A batch of one row is decided by
        ``_lone_verdict``.  In a batch, band rows are tested where they
        lie: ``_log_sum`` runs on the whole chunk and only the band rows'
        verdicts are kept.  values is overwritten.
        """
        n, t = values.shape
        if t == 1:
            idx = np.zeros(n, dtype=np.intp)
            lopsided = np.ones(n, dtype=bool)
        elif n == 1:
            ok, i = self._lone_verdict(values[0], tau)
            return np.array([ok and self._has_order[i]]), np.array([i]), np.array([ok])
        else:
            idx, peak, rest, m2 = _mask_peaks(values)
            gap = peak - m2
            lopsided = peak - (m2 + (math.log(t - 1) + 1e-6)) > tau
            band = ~(np.isfinite(gap) & (lopsided | (gap <= tau)))
            if band.any():
                rest -= m2[:, None]
                lopsided[band] = (peak - (m2 + _log_sum(rest)) > tau)[band]
        return lopsided & self._has_order[idx], idx, lopsided

    def _lone_verdict(self, v, tau):
        """(lopsided, peak index) of one row of values, as a bool and an int.

        The row is ``_certify``'s for a batch of one, decided by the same
        IEEE double operations as a batch but in Python floats: its peak,
        m2 read at its argmax as ``_mask_peaks`` does, both bracket edges
        and, for a band row, the margin from ``_log_sum`` of the 1-D row.
        A one-term table's row is lopsided at its only term.  v is
        overwritten.
        """
        t = len(v)
        if t == 1:
            return True, 0
        i = int(v.argmax())
        peak = float(v[i])
        v[i] = -math.inf
        m2 = float(v[v.argmax()])
        gap = peak - m2
        ok = peak - (m2 + (math.log(t - 1) + 1e-6)) > tau
        if math.isfinite(gap) and (ok or gap <= tau):
            return ok, i
        v -= m2
        return peak - (m2 + float(_log_sum(v))) > tau, i

    def certificate(self, w):
        """Test one rational point at the table's level; w coerces via Fraction."""
        nums, den = point_numerators(w, self.nvars)
        idx, margin = peak_margins(self.values([nums], den))
        return Certificate(
            bool(margin[0] > TAU), self.exponents[int(idx[0])], float(margin[0]), self.level
        )


def _certified_tiles(table, values, axis, nvars, wmax):
    """Each lattice point's peak when a tile its corners certify holds it, else -1.

    The lattice is axis^nvars, and values(rows) gives the table's log
    magnitudes at an (N, nvars) array of its points: ``values`` at
    integer numerators over a common denominator whose inner products
    are exact floats, or ``float_values`` at log points of two
    variables.  wmax bounds every coordinate's magnitude.  Tiles are
    TILE steps per side, the last one per axis running to the last
    point.  A tile is certified when ``_corner_peaks`` gives its 2^nvars
    corners one peak, which carries an order; the module docstring
    shows that the pointwise test then certifies each of its points with
    that peak, which holds them when axis is nondecreasing.  A point on
    a cut lies in several tiles, whose certified peaks therefore agree,
    and takes the largest.  Returns an array of shape (len(axis),) *
    nvars, of the smallest signed dtype that holds every term index, -1
    throughout when axis decreases anywhere.
    """
    count = len(axis)
    dtype = np.min_scalar_type(-len(table))
    if (np.diff(axis) < 0).any():
        return np.full((count,) * nvars, -1, dtype=dtype)
    cuts = np.append(np.arange(0, count - 1, TILE), count - 1)
    grids = np.meshgrid(*[axis[cuts]] * nvars, indexing="ij")
    corners = np.stack([g.ravel() for g in grids], axis=1)
    peak = _corner_peaks(table, values, corners, wmax).astype(dtype).reshape((len(cuts),) * nvars)
    # a tile keeps its low corner's peak when every other corner agrees
    tiles = peak[(slice(-1),) * nvars].copy()
    for offsets in product((0, 1), repeat=nvars):
        tiles[peak[tuple(slice(o, o + len(cuts) - 1) for o in offsets)] != tiles] = -1
    # each point's tile, and the tile before it for a point on a cut
    steps = np.arange(count)
    first = np.minimum(np.searchsorted(cuts, steps, "right") - 1, len(cuts) - 2)
    second = np.maximum(np.searchsorted(cuts, steps, "left") - 1, 0)
    for ax in range(nvars):
        tiles = np.maximum(np.take(tiles, first, axis=ax), np.take(tiles, second, axis=ax))
    return tiles


def _corner_peaks(table, values, corners, wmax):
    """Each corner's peak when it passes ``_certify`` at TAU + 2*delta, else -1.

    corners is an (N, nvars) array or sequence of tile corners, values
    gives their log magnitudes as in ``_certified_tiles``, and delta is
    ``_margin_error`` over coordinates at most wmax in magnitude.  A tile
    whose corners all have one peak j >= 0 holds only points that the
    pointwise test certifies with peak j (see the module docstring).
    """
    tau = TAU + 2 * _margin_error(table, wmax)
    ok, idx, _ = table._batched(lambda part: table._certify(values(part), tau), corners)
    return np.where(ok, idx, -1)


def _margin_error(table, wmax):
    """delta: a bound on |computed margin - exact margin| over a lattice.

    The computed margin is ``_certify``'s, at a point whose coordinates
    are at most wmax in magnitude; the exact one takes the table's float
    logb and exponents and the point as reals.  With u = 2^-53, t terms
    and V = max|logb| + wmax * (the table's row bound):

    - no summand of a value logb_i + <e_i, w> is rounded more than three
      times on either value route (see the module docstring), so the
      value is within gamma_3 V <= 3.01u V of exact; the peak moves by
      that much and the log-sum-exp of the rest too, 6.02u V in the
      margin;
    - each exp(v_i - m2) is within u|v_i - m2| + 8u of exact, relative,
      from the subtraction and 4 ulps of exp; as exp(-x) x <= 1/e, their
      sum X is off by at most u(0.37t + 8) X, X >= 1.  The summation
      adds gamma_{t-1} X, gamma_k = ku / (1 - ku) (Higham, Accuracy and
      Stability of Numerical Algorithms, 4.2), whatever its order: a
      path of any summation tree of the t summands, the peak's
      exp(-700) among them, makes at most t - 1 inexact additions.
      Raising each argument to _EXP_FLOOR moves each summand by at most
      1.01 e^-700, so log X by at most 1.01 t e^-700, far below u for
      any table of at most ``cycres.MAX_TERMS`` terms;
    - so log S is within 1.01u(1.4t + 8) + 1.01 t e^-700 of log X, and
      the log itself within 4 ulps, 8u log t;
    - the two final subtractions in p - (m2 + log S) add at most
      u(|p| + 2|m2| + 2 log t) <= u(3.01V + 2 log t).

    That sums to under u(9.1V + 1.42t + 10.1 log t + 8.1), and delta is
    2^-52 (5V + t + 6 log t + 5), whose spare tenth covers its own
    rounding.  Infinite when the row bound is past the float range.
    """
    t = len(table)
    try:
        reach = wmax * float(table._row_bound)
    except OverflowError:
        return math.inf
    v = float(np.abs(table.logb).max()) + reach
    return 2.0 ** -52 * (5 * v + t + 6 * math.log(t) + 5)


def _rejects_inside(table, w, shift=0.0):
    """Whether the pointwise test rejects every point proven inside the amoeba.

    A proof from ``zerocount`` holds for the amoeba of the input f, and
    the amoeba of every fold g of f is that of f, so at a proven point
    no term of g outweighs the others: g's exact margin, with its exact
    log magnitudes, is at most 0.  The table's logb are each within
    epsilon = ``gaussian.half_ln_error`` of those, which moves the margin
    by at most 2*epsilon, and the margin ``_certify`` computes is within
    delta = ``_margin_error`` of the one at the table's logb when the
    exponents are exact floats.  A tested point within shift of a proven
    one, in every coordinate, moves each value by at most shift times
    the row bound, and so the margin by at most twice that.

    True when the exponents are exact floats and delta + 2*epsilon +
    2*shift*(row bound) < TAU, delta taken over coordinates at most the
    largest |w|: w holds the tested coordinates, or a bound on them.  The
    computed margin at each tested point is then below TAU.  An infinite
    w never passes.
    """
    if table._row_bound >= _EXACT_FLOAT:
        return False
    wmax = float(np.abs(w).max())
    moved = 2 * shift * float(table._row_bound)
    return _margin_error(table, wmax) + 2 * half_ln_error(float(np.abs(table.logb).max())) + moved < TAU


def peak_margins(values):
    """First-max index per row and its log gap against the rest.

    values has shape (N, T).  The gap is the peak minus the log-sum-exp
    of the other terms, taken by ``_log_sum`` as every verdict takes it,
    so the result does not depend on how callers chunk their batches.
    """
    n, t = values.shape
    if t == 1:
        return np.zeros(n, dtype=np.intp), np.full(n, math.inf)
    idx, peak, rest, m2 = _mask_peaks(values.copy())
    rest -= m2[:, None]
    return idx, peak - (m2 + _log_sum(rest))


def _mask_peaks(values):
    """(peak index, peak, values with the peak set to -inf, m2) per row.

    m2 is the largest value left, read at its argmax, which costs less
    than a row max and gives the same value, NaN rows and all -inf rows
    included.  values is overwritten and returned.
    """
    idx = np.argmax(values, axis=1)
    rows = np.arange(len(values))
    peak = values[rows, idx]
    values[rows, idx] = -math.inf
    return idx, peak, values, values[rows, np.argmax(values, axis=1)]


def _log_sum(z):
    """log of the sum of exp(max(z, _EXP_FLOOR)) along the last axis.

    Every margin's log-sum: z is a row, or a C-contiguous chunk of rows,
    of v - m2 with the peak at -inf.  z is overwritten.
    """
    np.maximum(z, _EXP_FLOOR, out=z)
    return np.log(np.exp(z, out=z).sum(axis=-1))


def thread_count():
    """Worker count: AMOEBA_THREADS when it is an integer, at least 1; else 1."""
    raw = os.environ.get("AMOEBA_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def pool_map(fn, items):
    """[fn(x) for x in items], on ``thread_count()`` workers when more than one.

    Results come back in item order whatever the worker count.
    """
    threads = thread_count()
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def is_lopsided(g, w, level=0):
    """One-shot certificate for g, folded to ``level``, at the rational point w."""
    return TermTable(g, level).certificate(w)


def order_from_certificate(cert):
    """Complement-component order encoded by a passing certificate.

    The dominating exponent must be divisible coordinatewise by
    2^(level*nvars); a remainder means the certificate is corrupt.
    """
    if not cert.lopsided:
        raise CertificateError("point was not certified, it has no order")
    order = exponent_order(cert.dominant, cert.level)
    if order is None:
        div = 1 << (cert.level * len(cert.dominant))
        raise CertificateError(
            f"dominating exponent {cert.dominant} is not divisible by {div}"
        )
    return order


def choose_level(nvars, degree, eps):
    """Smallest folding level whose distance guarantee is below eps.

    The certified region at level k lies within c*k/2^k of the true log
    image, where c depends on the variable count and total degree.
    Levels are capped at LEVEL_CAP; tighter eps raises ValueError.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 1:
        raise ValueError("total degree must be at least 1")
    if not eps > 0:
        raise ValueError("eps must be positive")
    c = (nvars - 1) * math.log(2) + math.log((nvars + 3) * 2 ** (nvars + 1) * degree)
    for k in range(1, LEVEL_CAP + 1):
        if 2.0 ** k / k >= c / eps:
            return k
    raise ValueError(f"eps={eps} needs a folding level beyond {LEVEL_CAP}")
