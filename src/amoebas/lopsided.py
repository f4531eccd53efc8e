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
A ``TermTable`` does that division once per term when it is built;
grids, point queries and rasters all certify a point by its peak term
outweighing the rest and carrying an order, and read the order from
the table.

Scalar and batched queries share one float pipeline: inner products are
float(exact integer) / float(common denominator), and ties between
equal values resolve to the earliest term in graded-lex descending
order.  A point is therefore classified identically no matter which
route tested it, how the batch was chunked or how many worker threads
(``pool_map``) ran the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gaussian import log_abs
from .poly import ExponentVector, LaurentPoly

# Certification threshold for the log gap.  Strictly positive so float
# noise near the boundary can never produce a false certificate; small
# enough (about 1e-6) to be invisible at plotting resolution.
TAU = 2.0 ** -20

LEVEL_CAP = 30

# int64 matmul is used only when every possible inner product is
# provably below this, leaving headroom inside the int64 range.
_SAFE_DOT = 2 ** 62


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
    coords = [Fraction(x) for x in w]
    if len(coords) != nvars:
        raise ValueError(f"point has {len(coords)} coordinates, expected {nvars}")
    den = math.lcm(*(c.denominator for c in coords)) if coords else 1
    nums = tuple(c.numerator * (den // c.denominator) for c in coords)
    return nums, den


def exponent_order(e, level):
    """e / 2^(level*len(e)) coordinatewise, or None when it does not divide."""
    div = 1 << (level * len(e))
    return tuple(v // div for v in e) if all(v % div == 0 for v in e) else None


class TermTable:
    """Precomputed per-term data for repeated lopsidedness queries.

    level is the fold level of p.  orders[j] is the complement-component
    order that term j stands for when it dominates: its exponent divided
    by 2^(level*nvars), or None when that does not divide or, given
    explicit candidate orders, is not one of them.
    """

    __slots__ = (
        "nvars", "level", "exponents", "logb", "orders",
        "_has_order", "_emat", "_row_bound", "_fmat",
    )

    def __init__(self, p: LaurentPoly, level=0, candidates=None):
        if p.is_zero:
            raise ValueError("the zero polynomial has no lopsided points")
        terms = p.sorted_terms()
        self.nvars = p.nvars
        self.level = level
        self.exponents = tuple(e for e, _ in terms)
        self.logb = np.array([log_abs(c) for _, c in terms])
        orders = [exponent_order(e, level) for e in self.exponents]
        if candidates is not None:
            allowed = set(candidates)
            orders = [o if o in allowed else None for o in orders]
        self.orders = tuple(orders)
        self._has_order = np.array([o is not None for o in orders])
        try:
            self._emat = np.array(self.exponents, dtype=np.int64)
        except OverflowError:
            self._emat = None
        # in Python ints: an int64 sum of magnitudes can wrap
        self._row_bound = max(sum(map(abs, e)) for e in self.exponents)
        self._fmat = None

    def __len__(self):
        return len(self.exponents)

    def dots(self, rows, den):
        """Inner products <exponent, row>/den for every term, shape (N, T).

        rows is a sequence of integer rows or an (N, nvars) array of them.
        Each entry is float(exact integer) / float(den).  The int64 fast
        path is taken only when the exactness of the integer part is
        guaranteed, so both paths round identically.
        """
        try:
            m = np.asarray(rows, dtype=np.int64)
        except OverflowError:
            m = None
        if m is not None and self._emat is not None:
            # |int64 min| wraps to itself; its uint64 view is exact
            nmax = int(np.abs(m).view(np.uint64).max(initial=0))
            if self._row_bound * nmax < _SAFE_DOT:
                return (m @ self._emat.T).astype(np.float64) / float(den)
        out = np.empty((len(rows), len(self.exponents)))
        for i, row in enumerate(np.asarray(rows, dtype=object).tolist()):
            for j, e in enumerate(self.exponents):
                out[i, j] = float(sum(a * b for a, b in zip(e, row))) / float(den)
        return out

    def values(self, rows, den):
        """Log magnitudes of every term at every row, shape (N, T)."""
        return self.logb + self.dots(rows, den)

    def float_values(self, wmat):
        """Log magnitudes at float log points, shape (N, T).

        For sampled magnitudes whose logs are irrational the exact
        numerator pipeline does not apply; this path is still
        deterministic for a fixed input because every row is an
        independent float matmul.
        """
        if self._fmat is None:
            self._fmat = np.array(self.exponents, dtype=np.float64)
        return self.logb + np.asarray(wmat, dtype=np.float64) @ self._fmat.T

    def classify(self, rows, den):
        """Batched test at rational rows: (certified, peak indices, margins).

        A row is certified when its peak term outweighs the rest by more
        than TAU and carries an order; orders[idx] is then its order.
        """
        return self._certify(self.values(rows, den))

    def float_classify(self, wmat):
        """``classify`` at float log points, see ``float_values``."""
        return self._certify(self.float_values(wmat))

    def _certify(self, values):
        idx, margin = peak_margins(values)
        return (margin > TAU) & self._has_order[idx], idx, margin

    def certificate(self, w, level=None):
        """Test a single rational point; w entries coerce via Fraction.

        The certificate's level defaults to the table's.
        """
        nums, den = point_numerators(w, self.nvars)
        _, idx, margin = self.classify([nums], den)
        return Certificate(
            bool(margin[0] > TAU),
            self.exponents[int(idx[0])],
            float(margin[0]),
            self.level if level is None else level,
        )


def peak_margins(values):
    """First-max index per row and its log gap against the rest.

    values has shape (N, T).  The gap is the peak minus the log-sum-exp
    of the other terms, taken over exp-scaled values sorted ascending
    and accumulated sequentially, so the result does not depend on how
    callers chunk their batches.
    """
    n, t = values.shape
    idx = np.argmax(values, axis=1)
    if t == 1:
        return idx, np.full(n, math.inf)
    rows = np.arange(n)
    peak = values[rows, idx]
    rest = values.copy()
    rest[rows, idx] = -math.inf
    m2 = rest.max(axis=1)
    z = np.exp(rest - m2[:, None])
    z.sort(axis=1)
    total = np.cumsum(z, axis=1)[:, -1]
    return idx, peak - (m2 + np.log(total))


def thread_count(threads=None):
    """Worker count: the argument if given, else AMOEBA_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    raw = os.environ.get("AMOEBA_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def pool_map(fn, items, threads):
    """[fn(x) for x in items], on ``threads`` workers when more than one.

    Results come back in item order whatever the worker count.
    """
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
