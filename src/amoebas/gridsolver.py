"""Classify a rectangular grid of log-space points by escalating levels.

Every grid point starts unknown.  Level 0 tests the input polynomial
itself; each further level tests the cyclic product that folds in twice
as many root-of-unity substitutions per variable, whose certified
region shrinks toward the true log image.  Points certified at some
level are removed with their component order; points that survive every
level are presumed to lie on or near the amoeba.

Grids are rational so the canonical integer inner-product pipeline in
``lopsided`` applies: one common denominator serves the whole grid, and
classifications are independent of chunk size and thread count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cycres import DEFAULT_MAX_TERMS, quick_cyclic_resultant
from .lopsided import TAU, TermTable, choose_level, pool_map, thread_count
from .poly import LaurentPoly

MAX_GRID_POINTS = 10**7

DEFAULT_KMAX = 3


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rational grid: lo + m*step per axis, inclusive of hi."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    step: Fraction

    def __post_init__(self):
        lo = tuple(Fraction(x) for x in self.lo)
        hi = tuple(Fraction(x) for x in self.hi)
        step = Fraction(self.step)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be nonempty and the same length")
        if step <= 0:
            raise ValueError("step must be positive")
        for a, b in zip(lo, hi):
            if b <= a:
                raise ValueError(f"axis range [{a}, {b}] needs lo < hi")
            if (b - a) % step != 0:
                raise ValueError(f"step {step} does not evenly divide [{a}, {b}]")

    @classmethod
    def from_box(cls, lo, hi, step, nvars):
        """Same scalar bounds on every axis."""
        return cls((Fraction(lo),) * nvars, (Fraction(hi),) * nvars, Fraction(step))

    @property
    def nvars(self):
        return len(self.lo)

    @property
    def counts(self):
        return tuple(int((b - a) / self.step) + 1 for a, b in zip(self.lo, self.hi))

    @property
    def npoints(self):
        return math.prod(self.counts)

    def axis_values(self, d):
        return [self.lo[d] + m * self.step for m in range(self.counts[d])]


def make_grid(spec, max_points=MAX_GRID_POINTS):
    """All grid points, row major (last axis varies fastest)."""
    if spec.npoints > max_points:
        raise ValueError(f"grid has {spec.npoints} points, limit is {max_points}")
    axes = [spec.axis_values(d) for d in range(spec.nvars)]
    return list(product(*axes))


def epsilon_for_grid(spec):
    """Half the cell diagonal: every box point is this close to a grid point."""
    return float(spec.step) * math.sqrt(spec.nvars) / 2.0


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


def _classify_chunked(table, rows, den, threads):
    # bound the N x T value matrix at roughly 32 MB per chunk
    chunk = max(1, min(4096, (1 << 22) // max(1, len(table))))
    pieces = [rows[i : i + chunk] for i in range(0, len(rows), chunk)]
    outs = pool_map(lambda part: table.classify(part, den), pieces, threads)
    return tuple(np.concatenate([o[k] for o in outs]) for k in range(3))


def approximate_amoeba(
    f: LaurentPoly,
    spec: GridSpec,
    *,
    kmax=None,
    eps=None,
    max_terms=DEFAULT_MAX_TERMS,
    max_points=MAX_GRID_POINTS,
    threads=None,
):
    """Classify every grid point, escalating levels until certified.

    Exactly one of kmax and eps may be given; eps picks the level via
    ``choose_level`` from the polynomial's degree.  Returns records in
    grid row-major order.
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
    threads = thread_count(threads)

    points = make_grid(spec, max_points=max_points)
    den = math.lcm(*(x.denominator for x in spec.lo), spec.step.denominator)
    # integer numerators over den, axis by axis, in make_grid's order
    axes = [
        range(int(lo * den), int(hi * den) + 1, int(spec.step * den))
        for lo, hi in zip(spec.lo, spec.hi)
    ]
    rows = list(product(*axes))

    verdicts: list[MembershipRecord | None] = [None] * len(points)
    pending = list(range(len(points)))
    for level in range(kmax + 1):
        if not pending:
            break
        g = f if level == 0 else quick_cyclic_resultant(f, level, max_terms=max_terms)
        table = TermTable(g, level)
        ok, idx, margin = _classify_chunked(table, [rows[i] for i in pending], den, threads)
        dropped = int(np.count_nonzero(margin > TAU)) - int(np.count_nonzero(ok))
        if dropped:
            warnings.warn(
                f"level {level}: dropped {dropped} certificate(s) whose dominating "
                "exponent carries no component order"
            )
        orders = table.orders
        still = []
        for i, hit, peak in zip(pending, ok.tolist(), idx.tolist()):
            if hit:
                verdicts[i] = MembershipRecord(points[i], False, level, orders[peak])
            else:
                still.append(i)
        pending = still
    for i in pending:
        verdicts[i] = MembershipRecord(points[i], True, None, None)
    return verdicts


def _shifted_degree(f):
    # the level bound wants the degree after the exponents are shifted
    # into the nonnegative orthant; shifting multiplies by a monomial
    # and does not move the amoeba
    mins = [f.exponent_range(v)[0] for v in range(1, f.nvars + 1)]
    return max(sum(e[i] - mins[i] for i in range(f.nvars)) for e in f.terms)


def records_to_csv(records, stream):
    """Columns w1..wn, bit, level, order1..ordern; rationals as strings.

    bit is 1 for presumed amoeba points.  level and order columns are
    empty for them.
    """
    if not records:
        return
    n = len(records[0].point)
    writer = csv.writer(stream)
    writer.writerow(
        [f"w{d+1}" for d in range(n)]
        + ["bit", "level"]
        + [f"order{d+1}" for d in range(n)]
    )
    for rec in records:
        row = [str(x) for x in rec.point]
        row.append("1" if rec.in_amoeba else "0")
        row.append("" if rec.level is None else str(rec.level))
        row.extend([""] * n if rec.order is None else [str(v) for v in rec.order])
        writer.writerow(row)


def records_to_jsonl(records, stream):
    """One JSON object per line with point, inAmoeba, level, order."""
    for rec in records:
        obj = {
            "point": [str(x) for x in rec.point],
            "inAmoeba": rec.in_amoeba,
            "level": rec.level,
            "order": None if rec.order is None else list(rec.order),
        }
        stream.write(json.dumps(obj) + "\n")


def complement_consistency_violations(records, spec):
    """Adjacent certified points whose orders disagree.

    Such pairs straddle a region where the amoeba separates two
    complement components more finely than the grid resolves.  They are
    expected near thin tentacles, so this is a diagnostic, not an error.
    """
    counts = spec.counts
    strides = [0] * len(counts)
    acc = 1
    for d in reversed(range(len(counts))):
        strides[d] = acc
        acc *= counts[d]
    out = []
    for flat, rec in enumerate(records):
        if rec.in_amoeba:
            continue
        rem = flat
        index = []
        for d in range(len(counts)):
            index.append(rem // strides[d])
            rem %= strides[d]
        for d in range(len(counts)):
            if index[d] + 1 >= counts[d]:
                continue
            other = records[flat + strides[d]]
            if not other.in_amoeba and other.order != rec.order:
                out.append((rec.point, other.point, rec.order, other.order))
    return out
