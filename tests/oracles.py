"""Frozen expected values and reference routes shared across test modules.

Everything here was computed independently before being pinned: small
products by hand, larger ones cross-checked against the nested
resultant baseline and the numeric root-of-unity product.  The
reference routes (the full-product fold, the Sylvester determinant, the
numeric product, hull and region membership, grid points, boundary
centers) are used by tests only, so they live here and not in the
package.
"""

import cmath
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from amoebas import gridsolver
from amoebas.cycres import _is_one
from amoebas.gaussian import LN2, _ln_positive_ratio
from amoebas.gridsolver import MAX_GRID_POINTS
from amoebas.poly import LaurentPoly, _format_monomial, exact_div, mul
from amoebas.render import _CASES, _EDGES, crossed_cells

CUBIC = "z1^3 + z1*z2 + z2^3 + 1"
CUBIC_B2 = "z1^3 + 2*z1*z2 + z2^3 + 1"
CUBIC_BM4 = "z1^3 - 4*z1*z2 + z2^3 + 1"
GAUSS_PAIR = "(1+1i)*z1^2*z2 + z1 - 3*z2^2 + 1/2"
THREE_VAR = "z1*z2*z3 + z1^2 + z2 + z3 + 1"
LINE = "z1 + z2 + 1"

# its level-1 fold is estimated at 6,001^2 = 36,012,001 terms, over
# cycres.MAX_TERMS, so every fold of it is refused before any work
OVER_BUDGET = "z1^3000 + z2^3000 + 1"

# the two larger worked examples used by the cross-route equality and
# timing checks: a cubic with Gaussian-integer coefficients and a
# seven-term polynomial in three variables
GAUSS_CUBIC = "(5+1i)*z1^3 + (0+1i)*z1*z2 + (4+1i)*z2^3 + 1"
SEVEN_TERM_3VAR = (
    "z1^4*z2 + z1*z2*z3^5 + z1^2*z2^4 + z1*z2^2 + z1*z2*z3 + z1*z2*z3^3 + 1"
)

# level-2 fold of CUBIC, all 31 terms; spot anchors 969 at (16,16),
# -860 at (20,20), 246 at (32,8), constant 1
GOLDEN_CUBIC_K2 = {
    (48, 0): 1, (40, 4): 28, (36, 12): -4, (36, 0): -4, (32, 8): 246,
    (28, 16): -156, (28, 4): -156, (24, 24): 6, (24, 12): 576, (24, 0): 6,
    (20, 20): -860, (20, 8): -860, (16, 28): -156, (16, 16): 969,
    (16, 4): -156, (12, 36): -4, (12, 24): 576, (12, 12): 576, (12, 0): -4,
    (8, 32): 246, (8, 20): -860, (8, 8): 246, (4, 40): 28, (4, 28): -156,
    (4, 16): -156, (4, 4): 28, (0, 48): 1, (0, 36): -4, (0, 24): 6,
    (0, 12): -4, (0, 0): 1,
}

# size ladder for CUBIC at levels 1..6
LADDER_TERMS = {1: 10, 2: 31, 3: 109, 4: 409, 5: 1585, 6: 6241}
# degree 2^(2k) * 3 at level k, the degree identity of criterion 11; the
# printed source this ladder was pinned against shows 786 at level 4, a
# misprint of 768
LADDER_DEGREES = {1: 12, 2: 48, 3: 192, 4: 768, 5: 3072, 6: 12288}
LADDER_DIGITS_K6 = (805, 815)  # decimal digits of the largest |coefficient|

# sha256 of format_poly of the three perfbench fold inputs at their
# benchmark levels, (text, nvars, level) -> digest, recorded with the
# full-product fold that preceded the Graeffe kernel
FOLD_LISTING_SHA256 = {
    ("z1^3 + z1*z2 + z2^3 + 1", 2, 5):
        "836ed0640865d885ae882bad4af56afb670024bc0f4da31dbf356e7a8be6a57e",
    ("(2-1i)*z1*z2^-2 - 3/4 + z1^2 + (1+1i)*z2", 2, 4):
        "128f1bc7c5bef3ddc375344c3cf08befbf0a5957d081d240cae76d9ec455f93e",
    ("z1 + z2 + z3 + z1^-1*z2^-1*z3^-1 + 3", 3, 2):
        "28b095029a100196613d5576b0dbf280d43f01691ac78d76054395cac92b732d",
}

# sha256 of the pictures the command line writes, argv -> digest, and of
# the files the figure scripts write at small sizes, recorded with the
# per-record and per-cell render loops that the level column and the
# cell codes replaced.  The amoeba grid reaches all four palette shades.
_PICTURE_GRID = ("amoeba", "-f", CUBIC_B2, "--box", "-1", "3/2", "--step", "1/10", "--kmax", "4")
PICTURE_SHA256 = {
    (*_PICTURE_GRID, "--format", "svg"):
        "d062c2763e5438c322c58c360ff9b77cbbecef570b6cd88a368ae91e5d80219c",
    (*_PICTURE_GRID, "--format", "ppm"):
        "fdeab1ad7d89c5cda8dc2fde55470970cae95f3e883fbac9eec8a519b23a6897",
    ("semialg", "-f", CUBIC, "-k", "1,2", "--format", "svg", "--res", "64"):
        "14e6fb774e2fc213c5334dd58fbb81fb0b9fe0715904fde0b7efce56ea9dd63b",
    ("semialg", "-f", CUBIC, "--format", "ppm", "--res", "64"):
        "8f3d95ca72866331e1113d635dadffcf6189c6e45408aea334e06dada5da6afd",
}
FIGURE_RUNS = {
    "reproduce_figure1.py": ("--step", "1/4", "--kmax", "3"),
    "reproduce_figure2.py": ("--res", "32"),
}
FIGURE_SHA256 = {
    "figure1_b2.ppm": "58520825db024d9c87f185ebd8a6127ff2b6c348a722dfd47a79d7053a682a57",
    "figure1_b2.svg": "eb089629f0c47b23c7fe1f8b5599622d672e413fe588ff769d3551b1ba559ab2",
    "figure1_bm4.ppm": "b6cb9abd941aa8854a7360a0cbfaab8798c16faae164492b8d81b5a0693d5010",
    "figure1_bm4.svg": "e06d7cf420977078613b4a6dd1ccf7493524233cd84185e0ca781a72a5f0972b",
    "figure2_overlay.svg": "f585bf60ca3d7d037d37a17fb9e6b1e51ea2635e9fbedb68fa56a635c116eb95",
}

# sha256 of the `semialg -k 1,2 --format json` bytes, text -> digest,
# recorded with the description that took its magnitudes from a copy of
# the fold separate from its term table
SEMIALG_JSON_SHA256 = {
    CUBIC: "153ac72a1ff7686ff6f16ff03d761f9c0d284592d2a675877715b8595cb7dbb0",
    GAUSS_PAIR: "44d2de3c49ed6c0cbb4c541b709b512bd332f47f4a5e5365ee5fa79e93e7b112",
    THREE_VAR: "111241e3ab1d15c21b03b2bb65edff45b90baeaf1696fa83a5d2e285689fc7a9",
}

# level-1 fold of LINE and its candidate branches
LINE_K1 = {
    (4, 0): 1, (0, 4): 1, (2, 2): -2, (2, 0): -2, (0, 2): -2, (0, 0): 1,
}
LINE_K1_CANDIDATES = {
    (0, 0): ((0, 0), Fraction(1)),
    (1, 0): ((4, 0), Fraction(1)),
    (0, 1): ((0, 4), Fraction(1)),
}

# closed forms for the amoeba of LINE: membership in magnitude space is
# the triangle inequality on (x1, x2, 1)
def line_unlog_member(x1, x2):
    return x1 <= x2 + 1 and x2 <= x1 + 1 and x1 + x2 >= 1


# the fold as the defining doubling loop, one full product per step; the
# reference the Graeffe kernel of quick_cyclic_resultant is checked against


def flip_signs(p, var, level):
    """Negate every term whose ``var`` exponent is not divisible by 2^level.

    ``var`` is 1-based. This is evaluation at a primitive 2^level-th root of
    unity in disguise: on a polynomial whose ``var`` exponents are already
    multiples of 2^(level-1), flipping matches substituting
    z_var -> exp(pi*i/2^(level-1)) * z_var.
    """
    if not 1 <= var <= p.nvars:
        raise ValueError(f"variable index {var} out of range 1..{p.nvars}")
    if level < 1:
        raise ValueError("level must be at least 1")
    mask = (1 << level) - 1
    return LaurentPoly(p.nvars, {e: -c if e[var - 1] & mask else c for e, c in p.terms.items()})


def flip_multiply_fold(f, k):
    """cres(f; 2^k) as P <- P * flip(P), k steps per variable."""
    p = f
    for var in range(1, f.nvars + 1):
        for level in range(1, k + 1):
            p = mul(p, flip_signs(p, var, level))
    return p


# direct Sylvester determinant, an independent check of the baseline's
# subresultant elimination on tiny inputs; univariate polynomials in u
# are {u-degree: coefficient LaurentPoly}


def _sylvester_matrix(a, b, nvars):
    m, n = max(a), max(b)
    size = m + n
    zero = LaurentPoly(nvars)
    rows = []
    for i in range(n):  # n rows of a-coefficients
        row = [zero] * size
        for t, c in a.items():
            row[i + (m - t)] = c
        rows.append(row)
    for i in range(m):  # m rows of b-coefficients
        row = [zero] * size
        for t, c in b.items():
            row[i + (n - t)] = c
        rows.append(row)
    return rows


def _bareiss_det(matrix, nvars):
    """Fraction-free determinant of a small polynomial matrix."""
    size = len(matrix)
    mat = [row[:] for row in matrix]
    sign = 1
    prev = LaurentPoly.constant(nvars, 1)
    for k in range(size - 1):
        if mat[k][k].is_zero:
            swap = next((i for i in range(k + 1, size) if not mat[i][k].is_zero), None)
            if swap is None:
                return LaurentPoly(nvars)
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mul(mat[i][j], pivot) - mul(mat[i][k], mat[k][j])
                mat[i][j] = num if _is_one(prev) else exact_div(num, prev)
            mat[i][k] = LaurentPoly(nvars)
        prev = pivot
    det = mat[size - 1][size - 1]
    return det if sign > 0 else det.__neg__()


def sylvester_resultant_direct(a, b, nvars):
    """det of the explicit Sylvester matrix; cross-check for tiny inputs."""
    return _bareiss_det(_sylvester_matrix(a, b, nvars), nvars)


def format_poly_fractions(p):
    """``format_poly`` by ``Fraction`` arithmetic on each coefficient: the
    sign and magnitude of a real part by comparison and negation, each
    part by ``str``."""
    if p.is_zero:
        return "0"
    pieces = []
    for exponent, coeff in p.sorted_terms():
        mono = _format_monomial(exponent)
        lead = not pieces
        if not coeff.im:
            r = coeff.re
            negative = r < 0
            mag = -r if negative else r
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            sign = "-" if negative else ("" if lead else "+")
            pieces.append(sign + body)
        else:
            im = coeff.im
            middle = f"+{im}" if im > 0 else f"-{-im}"
            coeff_text = f"({coeff.re}{middle}i)"
            body = coeff_text + (f"*{mono}" if mono else "")
            pieces.append(body if lead else "+" + body)
    return "".join(pieces)


def complement_consistency_violations(records, spec):
    """Adjacent certified points whose orders disagree.

    Such pairs straddle a region where the amoeba separates two
    complement components more finely than the grid resolves.  They are
    expected near thin tentacles, so this is a diagnostic, not an error.
    """
    records = list(records)
    counts = (spec.count,) * spec.nvars
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


# -- numeric routes -----------------------------------------------------------

ORACLE_MAX_FACTORS = 65_536


def evaluate_complex(p, point):
    """p at a complex point, in doubles; coefficients and values must fit."""
    values = list(point)
    if len(values) != p.nvars:
        raise ValueError("point dimension mismatch")
    acc = 0j
    for e, c in p.terms.items():
        term = complex(c)
        for z, k in zip(values, e):
            term *= z ** k
        acc += term
    return acc


def poisson_numeric_oracle(f, r, point):
    """Defining product of cres(f; r) evaluated at one complex point.

    The third, numeric route next to the fold and the nested-resultant
    baseline.  Magnitudes accumulate in log form, so only the final
    answer must fit a double; overflow is reported, never silently
    saturated.  Factors iterate in a fixed row-major order, making the
    result deterministic.
    """
    if f.is_zero:
        raise ValueError("cyclic resultant of the zero polynomial")
    if r < 1:
        raise ValueError("r must be at least 1")
    n = f.nvars
    if r ** n > ORACLE_MAX_FACTORS:
        raise ValueError(f"{r}^{n} factors exceed the oracle bound of {ORACLE_MAX_FACTORS}")
    values = [complex(z) for z in point]
    if len(values) != n:
        raise ValueError("point dimension mismatch")
    if any(v == 0 for v in values):
        raise ValueError("oracle point must avoid the coordinate hyperplanes")
    try:
        coeffs = [(e, complex(c)) for e, c in f.sorted_terms()]
    except OverflowError as exc:
        raise OverflowError("coefficient too large for the numeric oracle") from exc
    roots = [cmath.exp(2j * math.pi * t / r) for t in range(r)]

    log_mag = 0.0
    phase = 1 + 0j
    for combo in itertools.product(range(r), repeat=n):
        scaled = [values[i] * roots[combo[i]] for i in range(n)]
        value = 0j
        for e, c in coeffs:
            term = c
            for z, exp in zip(scaled, e):
                term *= z ** exp
            value += term
        if value == 0:
            return 0j
        mag = abs(value)
        log_mag += math.log(mag)
        phase *= value / mag
    if log_mag > 709.0:
        raise OverflowError(
            f"product magnitude exp({log_mag:.3g}) exceeds double range despite log tracking"
        )
    return math.exp(log_mag) * phase


def zero_counts_at_angles(f, w):
    """Zeros of f in its last variable inside |z_n| < e^(w_n), at four angles.

    Entry a counts, by ``numpy.roots``, the zeros t of f(i^a e^(w_1), ...,
    i^a e^(w_(n-1)), t) times t^(-lo), lo the lowest power of z_n, in the
    open disc of radius e^(w_n).  At a point outside the amoeba the four
    counts agree and equal the component order's last coordinate (the
    order map of Forsberg-Passare-Tsikh).  Doubles throughout, so a zero
    near the circle may be miscounted; an independent check of orders,
    not a proof.
    """
    n = f.nvars
    lo, hi = f.exponent_range(n)
    counts = []
    for a in range(4):
        unit = 1j ** a
        coeffs = [0j] * (hi - lo + 1)
        for e, c in f.terms.items():
            term = complex(c)
            for x, k in zip(w[:-1], e[:-1]):
                term *= (unit * math.exp(x)) ** k
            coeffs[e[-1] - lo] += term
        roots = np.roots(coeffs[::-1])
        counts.append(int(np.count_nonzero(np.abs(roots) < math.exp(w[-1]))))
    return counts


def order_map_violations(records):
    """Mask, row major, of the certified grid points the order map orders wrongly.

    The order of the complement component at w is the gradient of the
    Ronkin function, which is convex, so along each axis v the v-th
    order coordinate never decreases as w_v grows (Forsberg-Passare-
    Tsikh).  Along every grid line in direction v, a certified point
    whose ord_v lies below the running maximum of the certified ord_v
    before it is a violation; points no level certified are skipped.
    records is an ``approximate_amoeba`` result.
    """
    spec = records.spec
    shape = (spec.count,) * spec.nvars
    certified = records.level >= 0
    # uncertified points hold the least int64, which raises no maximum
    ords = np.full((spec.npoints, spec.nvars), np.iinfo(np.int64).min)
    for k, orders in enumerate(records.orders):
        at = np.flatnonzero(records.level == k)
        ords[at] = np.array([orders[p] for p in records.peak[at].tolist()]).reshape(-1, spec.nvars)
    bad = np.zeros(shape, dtype=bool)
    for v in range(spec.nvars):
        ord_v = ords[:, v].reshape(shape)
        bad |= ord_v < np.maximum.accumulate(ord_v, axis=v)
    return bad.ravel() & certified


def sorted_margins(values):
    """(peak index, reference margin, bound B) per row of values, shape (N, T).

    The reference takes the peak p at the first argmax and m2 as the row
    max of the rest, and sums exp(v - m2) over the rest, unclamped,
    sorted ascending and accumulated one by one: margin
    p - (m2 + log S).  Any other summation of the same rows, such as
    ``lopsided._log_sum``'s, lies within B = 2^-50 (t + |p| + 2|m2| +
    10 log t) of it.  With u = 2^-53, both sums lie within gamma_{t-1} X
    of the exact sum X of their summands, gamma_k = ku / (1 - ku)
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), as a
    path of any summation tree of t values makes at most t - 1 inexact
    additions.  Both lie in [1, t - 1], so their logs differ by at most
    2.2 gamma_{t-1} for any table that fits in memory, plus 4 ulps each,
    8u log(t - 1).  Raising the exp arguments to -700 moves each summand
    by at most 1.01 e^-700, and log X by at most 1.01 t e^-700.  The two
    final subtractions add u times their operands each, so the margins
    differ by at most

        2.2 gamma_{t-1} + 1.01 t e^-700 + 16u log t + 2u (|p| + 2|m2| + 2 log t),

    which is below B, whose factor of about two also covers the rounding
    of B itself.  B is not finite where p or m2 is not.
    """
    t = values.shape[1]
    rest = values.copy()
    rows = np.arange(len(values))
    idx = np.argmax(values, axis=1)
    peak = values[rows, idx]
    rest[rows, idx] = -math.inf
    m2 = rest.max(axis=1)
    z = np.sort(np.exp(rest - m2[:, None]), axis=1)
    margin = peak - (m2 + np.log(np.cumsum(z, axis=1)[:, -1]))
    bound = 2.0 ** -50 * (t + np.abs(peak) + 2 * np.abs(m2) + 10 * math.log(t))
    return idx, margin, bound


def ln_fraction(value):
    """Natural log of a positive rational of any size."""
    mant, exp2 = _ln_positive_ratio(value.numerator, value.denominator)
    return mant + exp2 * LN2


# -- membership and geometry --------------------------------------------------


def _barycentric_rows(simplex, dim):
    """Integer rows E with E (x, 1) = D * (weights of x, residuals of x), D > 0.

    For x on the simplex's affine hull the residuals vanish and the
    first len(simplex) entries are D times x's unique barycentric
    weights.  None when the simplex's points are affinely dependent.
    """
    m = len(simplex)
    unit = [[Fraction(int(i == k)) for k in range(dim + 1)] for i in range(dim + 1)]
    rows = [[Fraction(t[i]) for t in simplex] + unit[i] for i in range(dim)]
    rows.append([Fraction(1)] * m + unit[dim])
    for c in range(m):
        pivot = next((i for i in range(c, dim + 1) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(dim + 1):
            if i != c and rows[i][c]:
                rows[i] = [v - rows[i][c] * w for v, w in zip(rows[i], rows[c])]
    scale = math.lcm(*(v.denominator for row in rows for v in row[m:]))
    return [[int(v * scale) for v in row[m:]] for row in rows]


def _simplices(points):
    """(simplex, barycentric rows) of the largest affinely independent subsets.

    Every affinely independent subset extends to one of these, so by
    Caratheodory's theorem their hulls cover conv(points).
    """
    points = sorted(set(map(tuple, points)))
    dim = len(points[0])
    for size in range(min(dim + 1, len(points)), 0, -1):
        found = [(s, _barycentric_rows(s, dim)) for s in itertools.combinations(points, size)]
        found = [(s, rows) for s, rows in found if rows is not None]
        if found:
            return found


def _in_simplex(simplex, rows, x):
    y = [sum(a * v for a, v in zip(row, (*x, 1))) for row in rows]
    return min(y[: len(simplex)]) >= 0 and not any(y[len(simplex):])


def hull_contains(points, x):
    """Exact membership of an integer or rational point in conv(points)."""
    return any(_in_simplex(s, rows, x) for s, rows in _simplices(points))


def hull_lattice_points(points):
    """Sorted integer points of conv(points), simplex by simplex, each
    scanned over its own bounding box."""
    found = set()
    for simplex, rows in _simplices(points):
        box = (range(min(col), max(col) + 1) for col in zip(*simplex))
        found.update(x for x in itertools.product(*box) if _in_simplex(simplex, rows, x))
    return tuple(sorted(found))


def contains_log(system, w):
    """True when a semialg system does NOT certify log point w."""
    return system.certify_log(w) is None


def contains(system, x):
    """Magnitude-space membership; x must be strictly positive floats."""
    coords = []
    for v in x:
        v = float(v)
        if not v > 0:
            raise ValueError("magnitude coordinates must be positive")
        coords.append(Fraction(math.log(v)))
    return contains_log(system, coords)


def plain_escalation(f, spec, kmax):
    """``approximate_amoeba`` with every inside proof switched off: each
    point the levels leave pending is tested at every level up to kmax."""
    def no_proofs(f, w):
        return np.zeros((len(w),) * f.nvars, dtype=bool)

    with mock.patch.object(gridsolver, "lattice_inside", no_proofs):
        return gridsolver.approximate_amoeba(f, spec, kmax=kmax)


def pointwise_escalation(f, spec, kmax):
    """``approximate_amoeba`` with its certified tiles and inside proofs
    switched off: every point is tested one by one at level 0, and each
    point the levels leave pending at every level up to kmax."""
    def no_tiles(table, spec, den):
        return np.full(spec.npoints, -1)

    with mock.patch.object(gridsolver, "_tile_peaks", no_tiles):
        return plain_escalation(f, spec, kmax)


def make_grid(spec, max_points=MAX_GRID_POINTS):
    """All grid points, row major (last axis varies fastest)."""
    if spec.npoints > max_points:
        raise ValueError(f"grid has {spec.npoints} points, limit is {max_points}")
    return list(itertools.product(spec.axis_values(), repeat=spec.nvars))


def epsilon_for_grid(spec):
    """Half the cell diagonal: every box point is this close to a grid point."""
    return float(spec.step) * math.sqrt(spec.nvars) / 2.0


def raster_axis(lo, hi, res):
    """Exact sample magnitudes along either axis of a res x res raster
    of [lo, hi]^2: lo + i*(hi - lo)/(res - 1), endpoints included."""
    lo, hi = Fraction(lo), Fraction(hi)
    return tuple(lo + i * (hi - lo) / (res - 1) for i in range(res))


def boundary_segments(bitmap, lo, hi):
    """Marching-squares contour of a point-sampled boolean raster, one
    Python tuple at a time: the reference for ``render._contour``.

    bitmap[i, j] is the sample at lattice point i along the first axis,
    j along the second, of a square lattice spanning [lo, hi] on both
    axes with endpoints included.
    Returns a list of ((x1, y1), (x2, y2)) segments in data
    coordinates, crossed cells in row-major order.
    """
    lo = float(lo)
    step = (float(hi) - lo) / (len(bitmap) - 1)
    return [
        tuple((lo + (i + di) * step, lo + (j + dj) * step) for di, dj in (_EDGES[e1], _EDGES[e2]))
        for i, j, code in zip(*(a.tolist() for a in crossed_cells(bitmap)))
        for e1, e2 in _CASES[code]
    ]


def boundary_centers(raster):
    """Exact centers of a raster's ``render.crossed_cells``, row major."""
    axis = raster_axis(raster.lo, raster.hi, len(raster.mask))
    i, j, _ = crossed_cells(raster.mask)
    return tuple(
        ((axis[p] + axis[p + 1]) / 2, (axis[q] + axis[q + 1]) / 2)
        for p, q in zip(i.tolist(), j.tolist())
    )
