"""Proofs that grid points and raster samples lie inside the amoeba, from counts of zeros.

Lopsidedness certifies points outside the amoeba only, so a point inside
it would be tested at every level of an escalation and never certified.
This module proves such points inside, by the order map of
Forsberg-Passare-Tsikh (cf. Theobald, "Computing amoebas", 2002), with
one kernel: ``lattice_inside`` on the lattice w^n of one float log
axis w.  A square grid is such a lattice, its axis the rational values
lo + m*step each rounded once; so is a raster, its axis the logs of
its samples.

Fix a log point w, one counted variable z_v and an angle theta.  Let
N(theta) count the zeros of

    p(t) = t^(-lo_v) * f(z), z_j = e^(w_j + i*theta) for j != v, z_v = t,

in the disc |t| < e^(w_v), where lo_v is f's lowest power of z_v.  By the
argument principle N depends continuously on theta, so it is constant,
as long as no zero lies on the circle.  Two angles with different counts
therefore prove a zero on the torus Log^-1(w): w lies in the amoeba, and
no level can ever certify it.

Counts are taken at the four angles theta = a*pi/2, where e^(i*theta) is
the exact unit i^a.  The roots are proposed by an Aberth-Ehrlich
iteration run on every polynomial of a batch at once, as numpy arrays;
the proposals are never trusted.  A count is accepted only when the
Weierstrass inclusion proves it: with distinct approximations r_1..r_d
of the d roots, the discs

    |t - r_k| <= d * |p(r_k)| / |a_d * prod_{j != k} (r_k - r_j)|

contain every zero, and a connected component of m discs holds exactly m
of them (Braess-Hadeler; Neumaier, "Enclosing clusters of zeros of
polynomials", 2003).  Each radius is enlarged by explicit bounds on the
rounding of e^(w), of the coefficients and of the evaluation of p.  A
count is known only when no disc meets the circle, compared with
directed slack on e^(w_v).  Non-finite or out-of-range values, a leading
coefficient the bounds cannot keep away from 0, and a disc that meets
the circle leave the count unknown, and a point is retired only when two
known counts differ.
"""

from __future__ import annotations

import numpy as np

# The counted variable's degree span above which no count is attempted.
MAX_COUNT_DEGREE = 16

_U = 2.0 ** -53
# Relative error bound of numpy's exp, 8 units in the last place.
_EXP_ERR = 16 * _U
# |log| bound for every exp taken: e^700 and e^-700 stay normal floats.
_MAX_LOG = 700.0
# Largest error bound on an inner product's log accepted, so that
# e^eta - 1 <= 2*eta holds with room to spare.
_MAX_LOG_ERROR = 2.0 ** -10
# Relative slack on every computed bound, far above the rounding of the
# bounds themselves (a few hundred units in the last place at most).
_SLACK = 1 + 2.0 ** -30
# Absolute floor added to every error bound and the least accepted
# denominator: any product that underflows loses at most 2^-1074.
_TINY = 2.0 ** -1000
# Accepted range of each |r_k - r_j|, so that every partial product of
# the up to MAX_COUNT_DEGREE - 1 factors stays a normal float.
_GAP_RANGE = 2.0 ** (900 // MAX_COUNT_DEGREE)
# Values per batch: of the (d, d, P) differences of an Aberth step, and
# of each block of disc and circle comparisons.
_BATCH_VALUES = 1 << 18
# Aberth steps after which a root proposal stops moving.
_ABERTH_STEPS = 64
# A polynomial's proposals stop once every step is at most this many
# times its largest |root|.
_ABERTH_STOP = 2.0 ** -50

_UNITS = np.array([1, 1j, -1, -1j])


def _counted_variable(f):
    """(v, d): the last variable of smallest positive degree span, or None."""
    spans = [hi - lo for lo, hi in map(f.exponent_range, range(1, f.nvars + 1))]
    positive = [s for s in spans if s > 0]
    if f.nvars == 1 or not positive or min(positive) > MAX_COUNT_DEGREE:
        return None
    d = min(positive)
    return max(v for v, s in enumerate(spans) if s == d), d


def _term_matrices(f, v, d):
    """(coefficient matrix, magnitude matrix, prefix exponents) of f's terms.

    The coefficient matrix is T x 4(d+1): term e's coefficient turned by
    the angle unit i^(a * sum of e's other exponents), in angle a's block
    at column e_v - lo_v.  The magnitude matrix is T x (d+1), the same
    without the units.  None when a value does not fit a float.
    """
    lo_v = f.exponent_range(v + 1)[0]
    terms = list(f.terms.items())
    try:
        coef = np.array([complex(c) for _, c in terms])
        prefix = np.array([[float(x) for j, x in enumerate(e) if j != v] for e, _ in terms])
    except OverflowError:
        return None
    mag = np.abs(coef)
    if not (np.all(np.isfinite(mag)) and np.all(mag > 2.0 ** -960)):
        return None
    spin = np.array([(sum(e) - e[v]) % 4 for e, _ in terms])
    col = np.array([e[v] - lo_v for e, _ in terms])
    t = np.arange(len(terms))
    turned = np.zeros((len(terms), 4, d + 1), dtype=complex)
    for a in range(4):
        turned[t, a, col] = coef * _UNITS[spin * a % 4]
    magnitude = np.zeros((len(terms), d + 1))
    magnitude[t, col] = mag
    return turned.reshape(len(terms), -1), magnitude, prefix


def _powers(x, d):
    """x^0..x^d along a new last axis, by repeated multiplication."""
    return np.cumprod(np.stack([np.ones_like(x)] + [x] * d, axis=-1), axis=-1)


def _aberth(monic):
    """(d, P) root proposals for the P monic polynomials of monic (P, d).

    Row p holds the coefficients of t^d + sum_m monic[p, m] t^m, lowest
    power first, all finite.  Aberth-Ehrlich iteration on every
    polynomial at once, roots along axis 0 and polynomials along axis 1,
    from d starts on the circle of radius |a_0|^(1/d) (1 when a_0 is 0),
    turned by 0.4 rad.  A polynomial leaves the iteration once every
    step is at most 2^-50 times its largest |root|; one still moving
    after ``_ABERTH_STEPS`` steps keeps its last proposals.
    """
    count, d = monic.shape
    coef = np.ascontiguousarray(monic.T)
    radius = np.abs(coef[0]) ** (1 / d)
    radius[radius == 0] = 1
    roots = np.exp(1j * (2 * np.pi / d * np.arange(d) + 0.4))[:, None] * radius
    z, c, live = roots, coef, np.arange(count)
    diagonal = np.arange(d)
    for _ in range(_ABERTH_STEPS):
        # p and p' by Horner's rule
        p = z + c[d - 1]
        dp = np.ones_like(z)
        for m in range(d - 2, -1, -1):
            dp *= z
            dp += p
            p *= z
            p += c[m]
        newton = np.divide(p, dp, out=p)
        # sum over j != k of 1 / (z_k - z_j), the diagonal's 1/inf being 0
        pull = z[:, None, :] - z[None, :, :]
        pull[diagonal, diagonal] = np.inf
        pull = np.sum(np.reciprocal(pull, out=pull), axis=1)
        step = newton / (1 - np.multiply(newton, pull, out=pull))
        # a NaN step or root compares false, so its polynomial stops too
        moving = np.any(np.abs(step) > _ABERTH_STOP * np.max(np.abs(z), axis=0), axis=0)
        z = z - step
        roots[:, live] = z
        if not moving.any():
            break
        if not moving.all():
            z, c, live = z[:, moving], c[:, moving], live[moving]
    return roots


def _discs(coef, err, d):
    """Inclusion discs of the roots of a stack of degree-d polynomials.

    coef is (..., d+1) complex, lowest power first, and err bounds each
    coefficient's distance to the true one.  Returns (lo, hi, ok): the
    discs' nearest and farthest |t|, each (..., d), and whether the
    polynomial's discs are proven.
    """
    lead = np.abs(coef[..., d])
    monic = coef[..., :d] / coef[..., d, None]
    ok = np.all(np.isfinite(coef), axis=-1) & np.all(np.isfinite(monic), axis=-1)
    ok &= lead > 2 * err[..., d]
    # a rejected polynomial is not iterated: its d roots stay at 0, and
    # the gap check keeps it unproven
    roots = np.zeros(monic.shape, dtype=complex)
    roots[ok] = _aberth(monic[ok]).T

    # |p(r_k)| <= bound: the computed value, its rounding (powers by
    # repeated products, then a sum), the coefficients' own error, and
    # what underflow in the powers can lose
    size = np.abs(roots)
    size_powers = _powers(size, d)
    value = np.abs(np.einsum("...m,...km->...k", coef, _powers(roots, d)))
    spread = np.einsum("...m,...km->...k", np.abs(coef), size_powers)
    drift = np.einsum("...m,...km->...k", err, size_powers)
    floor = _TINY * (1 + np.sum(np.abs(coef), axis=-1))
    bound = value + (10 * d + 10) * _U * spread + drift + floor[..., None]

    # |a_d * prod_{j != k} (r_k - r_j)| >= scale
    gaps = np.abs(roots[..., :, None] - roots[..., None, :])
    gaps[..., np.arange(d), np.arange(d)] = 1
    ok &= np.all((gaps >= 1 / _GAP_RANGE) & (gaps <= _GAP_RANGE), axis=(-2, -1))
    separation = np.prod(gaps, axis=-1) * (1 - 8 * d * _U)
    scale = (lead - err[..., d])[..., None] * separation
    radius = d * bound / scale * _SLACK
    ok &= np.all(np.isfinite(radius) & (scale >= _TINY) & np.isfinite(scale), axis=-1)
    # the distance to the origin of the disc's nearest and farthest point,
    # with every rounding of |r_k| and of the sums inside the slack
    reach = 8 * _U * (size + radius) + _TINY
    return size - radius - reach, size + radius + reach, ok


def _prefix_discs(turned, magnitude, prefix, w, d):
    """Inclusion discs at the prefix points w: (lo, hi, known).

    w is (P, n - 1), the log coordinates of the variables other than the
    counted one, and turned, magnitude and prefix are
    ``_term_matrices``'.  lo and hi are (P, 4, d), known is (P, 4): the
    discs of the polynomial in t at each point and angle are proven and
    every log and exp taken fits its error bound.  The bounds hold for
    w's floats as exact reals and also for w as the rounding of a
    rational once.
    """
    n, terms, count = prefix.shape[1] + 1, len(prefix), len(w)
    with np.errstate(all="ignore"):
        logs = w @ prefix.T
        log_err = 2 * (n + 6) * _U * (np.abs(w) @ np.abs(prefix).T)
        usable = np.all((np.abs(logs) <= _MAX_LOG) & (log_err <= _MAX_LOG_ERROR), axis=1)
        values = np.exp(np.where(usable[:, None], logs, 0))
        rel = 2 * (log_err + _EXP_ERR)
        coef = (values @ turned).reshape(count, 4, d + 1)
        err = 2 * ((values * rel) @ magnitude + (terms + 6) * _U * (values @ magnitude)) + _TINY

        lo = np.empty((count, 4, d))
        hi = np.empty((count, 4, d))
        known = np.empty((count, 4), dtype=bool)
        step = max(1, _BATCH_VALUES // (4 * d * d))
        for s in range(0, count, step):
            part = slice(s, s + step)
            lo[part], hi[part], known[part] = _discs(coef[part], err[part, None, :], d)
    return lo, hi, known & usable[:, None]


def _circles(wv):
    """(fits, r_lo, r_hi): whether e^wv can be taken, and bounds below and above it.

    The bounds hold for wv's floats as exact reals and also for wv as
    the rounding of a rational once.
    """
    fits = np.abs(wv) <= _MAX_LOG
    with np.errstate(all="ignore"):
        radius = np.exp(np.clip(wv, -_MAX_LOG, _MAX_LOG))
        slack = 2 * (3 * _U * np.abs(wv) + _EXP_ERR)
    return fits, radius * (1 - slack), radius * (1 + slack)


def lattice_zero_counts(f, w):
    """Proven zero counts on the lattice w^n, one angle at a time.

    w is one log axis, ascending or not, shared by all n variables; its
    floats are taken as exact reals, or as roundings of rationals once.
    Yields four (R,)*n int8 arrays, R = len(w), row major, -1 where
    unknown: entry (i_1, ..., i_n) of the a-th is the number of zeros
    of p at theta = a*pi/2 inside its circle, at the log point (w_i_1,
    ..., w_i_n).  Every entry is -1 when f has no counted variable.

    Discs are taken once at each point of the prefix lattice w^(n-1)
    over the other variables, so the roots of R^(n-1) x 4 polynomials
    are proposed and enclosed, not of R^n x 4; each disc is then
    compared with every circle of the counted variable, R^n x 4 x d
    comparisons in blocks of prefix points.  Each angle's counts are yielded before the next
    angle's are built, so one int8 array of R^n entries is held per
    angle (10 MB at ``gridsolver.MAX_GRID_POINTS``).
    """
    n, res = f.nvars, len(w)
    picked = _counted_variable(f)
    tables = None if picked is None else _term_matrices(f, *picked)
    if tables is None:
        for _ in range(4):
            yield np.full((res,) * n, -1, dtype=np.int8)
        return
    v, d = picked
    others = np.stack([g.ravel() for g in np.meshgrid(*[w] * (n - 1), indexing="ij")], axis=1)
    lo, hi, known = _prefix_discs(*tables, others, d)
    fits, r_lo, r_hi = _circles(w)
    # a count is proven when every disc lies wholly inside or wholly
    # outside the circle; rows run over the prefix points, columns over
    # the counted variable's circles, a block of rows at a time
    step = max(1, _BATCH_VALUES // res)
    for a in range(4):
        counts = np.full((len(others), res), -1, dtype=np.int8)
        for s in range(0, len(others), step):
            part = slice(s, s + step)
            clear = known[part, a, None] & fits
            inside = np.zeros(clear.shape, dtype=np.int8)
            for k in range(d):
                below = hi[part, a, k, None] < r_lo
                inside += below
                clear &= below | (lo[part, a, k, None] > r_hi)
            np.copyto(counts[part], inside, where=clear)
        # the counted variable's axis is last; put it in its place
        yield np.moveaxis(counts.reshape((res,) * n), -1, v)


def _differ(counts):
    """Mask of the points with two known counts that differ.

    counts yields each angle's counts, -1 where unknown; only a running
    max and a running min of them are kept.
    """
    counts = iter(counts)
    most = next(counts).copy(order="K")
    # -1 is the least count signed and the largest unsigned, so an
    # unknown count decides neither the max nor the min; with every
    # count unknown, both read as the largest unsigned
    least = most.view(f"u{most.itemsize}").copy(order="K")
    for c in counts:
        np.maximum(most, c, out=most)
        np.minimum(least, c.view(least.dtype), out=least)
    return least < most.view(least.dtype)


def lattice_inside(f, w):
    """(R,)*n mask of the lattice points whose zero counts provably differ.

    Points as in ``lattice_zero_counts``: each masked point is a point
    of the amoeba of f, and no level of the lopsided escalation can
    certify it.
    """
    return _differ(lattice_zero_counts(f, w))
