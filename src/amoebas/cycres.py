"""Cyclic resultants of Laurent polynomials.

The cyclic resultant cres(f; r) is the product of f over all n-tuples of
r-th root-of-unity scalings of the variables, a single polynomial whose
coefficients are exact Gaussian rationals. Two independent routes:

* :func:`quick_cyclic_resultant`, for r = 2^k. One doubling step multiplies
  the current product P by its sign-flipped twin (terms with an odd multiple
  of the current 2-power in one variable are negated), which is evaluation
  at a root of unity in disguise; k steps per variable replace the 2^k
  factors of the defining product. Cost grows with k, not 2^k. Splitting
  P = E + O, with O the flipped terms, turns the step into
  P * flip(P) = E^2 - O^2, the Dandelin-Graeffe root-squaring step. Exponent
  vectors are packed into integer keys once per fold, and one real squaring
  is the only kernel: a Gaussian half A + iB costs three of them. Each step
  maps its keys onto a dense box of slots, where a pair's slot is the sum of
  its terms' slots, and the squaring adds into a list over that box, or into
  a dict of keys when the box would hold over ``_DENSE_SLOTS_PER_PAIR``
  slots per pair product.
* :func:`iterated_resultant_baseline`, the defining nested resultants
  Res(f(u * z), u^r - 1), any r >= 1, evaluated by fraction-free
  subresultant elimination of the Sylvester system. Dramatically slower;
  exists to cross-check the quick route term by term.

Both routes refuse, with :class:`TermBudgetError`, a fold whose estimated
term count (:func:`estimate_result_terms`) exceeds the fixed ``MAX_TERMS``.

The tests add a third, numeric route: the defining product evaluated at
one complex point (``tests/oracles.py``).

Useful invariants: every exponent of cres(f; 2^k) is divisible by 2^k in
every variable; for polynomial (non-Laurent) f the total degree is exactly
2^(k*n) * deg f; cres(f*g) = cres(f) * cres(g).
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections import defaultdict

from .gaussian import GaussianRational
from .poly import (
    ExponentVector,
    LaurentPoly,
    _content_reduce,
    _from_int_form,
    _int_form,
    exact_div,
    mul,
)

MAX_TERMS = 10_000_000


class TermBudgetError(RuntimeError):
    """Estimated output size exceeds the term budget ``MAX_TERMS``."""


class BaselineTimeout(RuntimeError):
    """Cooperative deadline expired inside the baseline elimination."""


class Deadline:
    """Wall-clock budget of the baseline, checked before each ring step.

    Every multiplication and exact division the baseline issues goes
    through ``mul``/``div`` here, so it returns at most one such step
    past its budget.
    """

    __slots__ = ("t_end",)

    def __init__(self, seconds: float):
        self.t_end = time.perf_counter() + seconds

    def check(self) -> None:
        if time.perf_counter() > self.t_end:
            raise BaselineTimeout("baseline resultant exceeded its time budget")

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        self.check()
        return mul(a, b)

    def div(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        self.check()
        return exact_div(a, b)


def estimate_result_terms(f: LaurentPoly, copies_per_var: int) -> int:
    """Upper bound on the term count of a cyclic resultant.

    The result's support, divided by r in every variable, fits in the box
    whose side along variable i is r^(n-1) times f's exponent range there.
    """
    n = f.nvars
    bound = 1
    for i in range(1, n + 1):
        lo, hi = f.exponent_range(i)
        bound *= (hi - lo) * copies_per_var ** (n - 1) + 1
    return bound


def _check_budget(f: LaurentPoly, r: int) -> None:
    estimate = estimate_result_terms(f, r)
    if estimate > MAX_TERMS:
        raise TermBudgetError(
            f"estimated up to {estimate} output terms, over the budget of {MAX_TERMS}"
        )


def quick_cyclic_resultant(f: LaurentPoly, k: int) -> LaurentPoly:
    """cres(f; 2^k) by k Graeffe doubling steps per variable.

    After level l in variable j the running product P equals the cyclic
    resultant of f over the 2^l-th roots of unity in variable j alone, so
    its exponents there are multiples of 2^l; flipping the sign of the
    terms whose exponent is not a multiple of 2^(l+1) is then exactly
    evaluation at a primitive 2^(l+1)-th root, and P * flip(P) = E^2 - O^2
    (see :func:`_graeffe_step`). Variables fold in the order 1..n.

    A step doubles every exponent, so after s steps exponent i lies in
    [lo_i * 2^s, hi_i * 2^s], with [lo_i, hi_i] f's own range. Each vector
    is packed once, before the first step, into one mixed-radix key whose
    digit i is e_i - lo_i * 2^s, radix (hi_i - lo_i) * 2^(k*n) + 1: the
    sum of two keys is the packed sum of their exponents one step on, and
    never carries. Exponent tuples come back once, after the last step.
    """
    if f.is_zero:
        raise ValueError("cyclic resultant of the zero polynomial")
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k == 0:
        return f
    _check_budget(f, 2**k)

    den, table = _int_form(f)
    steps = k * f.nvars
    columns = list(zip(*table))
    lows = [min(column) for column in columns]
    radices = [((max(column) - low) << steps) + 1 for column, low in zip(columns, lows)]
    weights = [1]
    for radix in radices[:-1]:
        weights.append(weights[-1] * radix)
    shift = sum(map(operator.mul, lows, weights))
    packed = {sum(map(operator.mul, e, weights)) - shift: ab for e, ab in table.items()}

    done = 0
    for var, low in enumerate(lows):
        for level in range(1, k + 1):
            packed = _graeffe_step(packed, weights, radices, var, low << done, (1 << level) - 1)
            done += 1
            den *= den
            den, packed = _content_reduce(den, packed)

    unpack = [(weight, radix, low << steps) for weight, radix, low in zip(weights, radices, lows)]
    out = {tuple(key // w % r + o for w, r, o in unpack): ab for key, ab in packed.items()}
    return _from_int_form(f.nvars, den, out)


# a step squares into a list over its slot box while the box holds at most
# this many slots per pair product (plus a few); past that, into a dict
_DENSE_SLOTS_PER_PAIR = 4


def _graeffe_step(
    table: dict[int, tuple[int, int]],
    weights: list[int],
    radices: list[int],
    var: int,
    offset: int,
    mask: int,
) -> dict[int, tuple[int, int]]:
    """E^2 - O^2 over packed keys, O the terms whose exponent in ``var`` has bits in ``mask``.

    Digit i of a key is ``key // weights[i] % radices[i]``; the folded
    variable's exponent is its digit plus ``offset``. The split reads the
    parity of the exponent, not of the digit: the offset lo * 2^s is in
    general no multiple of 2^level (odd negative exponents), so the
    digit's residue need not be the exponent's.

    The squares accumulate in a list indexed by slot. Per variable i, with
    m_i the table's least digit and g_i the gcd of the differences from
    it, a term's coordinate is c_i = (digit - m_i) / g_i, in [0, t_i], and
    its slot is sum c_i * S_i with S_i the product of 2 * t_j + 1 over
    j < i. The slot is linear in the key and each coordinate of a sum of
    two terms lies in [0, 2 * t_i], so slot(k1) + slot(k2) is the slot of
    k1 + k2 in the box of side 2 * t_i + 1, and slot q decodes to the key
    sum (2 * m_i + g_i * q_i) * w_i. The list is taken while the box holds
    at most ``_DENSE_SLOTS_PER_PAIR`` slots per pair product, plus a few.
    Past that the same loop adds into a ``defaultdict`` by packed key,
    which needs no decoding since the sum of two keys is the key of the
    sum, so a sparse support costs memory in its pair count, not in its
    box.

    Both halves square with the one real primitive :func:`_square`: a half
    A + iB squares to A^2 - B^2 + ((A + B)^2 - A^2 - B^2) i. When no
    coefficient of the table has an imaginary part, only A is squared.
    """
    keys = list(table)
    columns = [[key // weight % radix for key in keys] for weight, radix in zip(weights, radices)]
    lows = [min(column) for column in columns]
    gaps = [math.gcd(*(d - low for d in column)) or 1 for column, low in zip(columns, lows)]
    sides = [2 * (max(column) - low) // gap + 1 for column, low, gap in zip(columns, lows, gaps)]
    size = math.prod(sides)
    parity = [(d + offset) & mask for d in columns[var]]
    n_odd = len(keys) - parity.count(0)
    n_even = len(keys) - n_odd
    pairs = (n_odd * (n_odd + 1) + n_even * (n_even + 1)) // 2
    dense = size <= _DENSE_SLOTS_PER_PAIR * (pairs + 16)
    labels = keys
    if dense:
        labels = [0] * len(keys)
        stride = 1
        for column, low, gap, side in zip(columns, lows, gaps, sides):
            labels = [s + (d - low) // gap * stride for s, d in zip(labels, column)]
            stride *= side

    evens: list[tuple[int, int, int]] = []
    odds: list[tuple[int, int, int]] = []
    for label, flip, (a, b) in zip(labels, parity, table.values()):
        (odds if flip else evens).append((label, a, b))
    halves = ((evens, 1), (odds, -1))

    def box():
        return [0] * size if dense else defaultdict(int)

    sq_a = box()
    for half, sign in halves:
        _square(sq_a, [(label, a) for label, a, _ in half], sign)
    filled = enumerate(sq_a) if dense else sq_a.items()
    if not any(b for _, b in table.values()):
        squared = {label: (a, 0) for label, a in filled if a}
    else:
        sq_b = box()
        sq_ab = box()
        for half, sign in halves:
            _square(sq_b, [(label, b) for label, _, b in half], sign)
            _square(sq_ab, [(label, a + b) for label, a, b in half], sign)
        re_im = ((label, a2 - sq_b[label], sq_ab[label] - a2 - sq_b[label]) for label, a2 in filled)
        squared = {label: (re, im) for label, re, im in re_im if re or im}
    if not dense:
        return squared

    base = 2 * sum(map(operator.mul, lows, weights))
    units = [(side, gap * weight) for side, gap, weight in zip(sides, gaps, weights)]

    def decode(slot):
        packed = base
        for side, unit in units:
            slot, q = divmod(slot, side)
            packed += q * unit
        return packed

    return {decode(slot): ab for slot, ab in squared.items()}


def _square(acc: list[int] | defaultdict[int, int], terms: list[tuple[int, int]], sign: int) -> None:
    """Add sign * (sum of v * z^label)^2 into ``acc``; each pair i < j once, doubled.

    ``acc`` is a list indexed by slot over the step's box, or a
    ``defaultdict(int)`` indexed by packed key; in both the label of a
    pair is the sum of its terms' labels, and the one loop indexes
    either. Zero values are squared too, so the dict squares of one
    step's A, B and A + B share their keys.
    """
    for i, (s1, v1) in enumerate(terms):
        acc[s1 + s1] += sign * v1 * v1
        twice = 2 * sign * v1
        for s2, v2 in itertools.islice(terms, i + 1, None):
            acc[s1 + s2] += twice * v2


# -- baseline: nested resultants against u^r - 1 ------------------------------
#
# Res(A, B) here is the standard Sylvester convention
#   Res(A, B) = lc(A)^deg(B) * prod over roots alpha of A of B(alpha),
# so Res(u^r - 1, A), with the cyclotomic factor first and monic, is exactly
# the product of A over the r-th roots of unity. Negative u-exponents
# (Laurent input) are cleared by multiplying with u^m, which scales the
# product by the m-th power of the product of all r-th roots of unity, a
# known sign.

_UnivPoly = dict[int, LaurentPoly]  # u-degree -> coefficient in the remaining ring


def _udeg(a: _UnivPoly) -> int:
    return max(a)


def _uprune(a: _UnivPoly) -> _UnivPoly:
    return {t: c for t, c in a.items() if not c.is_zero}


def _prem(a: _UnivPoly, b: _UnivPoly, deadline: Deadline) -> _UnivPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + rem."""
    deg_a = _udeg(a)
    deg_b = _udeg(b)
    lc_b = b[deg_b]
    monic = _is_one(lc_b)
    rem = dict(a)
    steps = 0
    while rem and (deg_r := max(rem)) >= deg_b:
        lead = rem.pop(deg_r)
        shift = deg_r - deg_b
        scaled = dict(rem) if monic else {t: deadline.mul(c, lc_b) for t, c in rem.items()}
        for t, c in b.items():
            if t == deg_b:
                continue
            target = t + shift
            delta = deadline.mul(lead, c)
            prev = scaled.get(target)
            scaled[target] = delta.__neg__() if prev is None else prev - delta
        rem = _uprune(scaled)
        steps += 1
    missing = (deg_a - deg_b + 1) - steps
    if missing > 0 and rem and not monic:
        factor = _poly_pow(lc_b, missing, deadline)
        rem = {t: deadline.mul(c, factor) for t, c in rem.items()}
    return rem


def _poly_pow(p: LaurentPoly, e: int, deadline: Deadline) -> LaurentPoly:
    result = LaurentPoly.constant(p.nvars, 1)
    base = p
    while e:
        if e & 1:
            result = deadline.mul(result, base)
        base = deadline.mul(base, base) if e > 1 else base
        e >>= 1
    return result


def _is_one(p: LaurentPoly) -> bool:
    if len(p.terms) != 1:
        return False
    ((e, c),) = p.terms.items()
    return not any(e) and c == 1


def _resultant_univ(a: _UnivPoly, b: _UnivPoly, nvars: int, deadline: Deadline) -> LaurentPoly:
    """Sylvester resultant over the Laurent coefficient ring.

    Fraction-free subresultant remainder sequence (the structured form of
    eliminating the Sylvester matrix without fractions); every division
    below is exact in the coefficient ring.
    """
    one = LaurentPoly.constant(nvars, 1)
    sign = 1
    if _udeg(a) < _udeg(b):
        if _udeg(a) % 2 and _udeg(b) % 2:
            sign = -sign
        a, b = b, a
    if _udeg(b) == 0 and _udeg(a) == 0:
        return one
    g = one
    h = one
    while _udeg(b) > 0:
        deg_a, deg_b = _udeg(a), _udeg(b)
        delta = deg_a - deg_b
        if deg_a % 2 and deg_b % 2:
            sign = -sign
        rem = _prem(a, b, deadline)
        a = b
        if not rem:
            return LaurentPoly(nvars)  # positive-degree common factor
        divisor = deadline.mul(g, _poly_pow(h, delta, deadline))
        if _is_one(divisor):
            b = rem
        else:
            b = {t: deadline.div(c, divisor) for t, c in rem.items()}
        g = a[_udeg(a)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = deadline.div(_poly_pow(g, delta, deadline), _poly_pow(h, delta - 1, deadline))
    deg_a = _udeg(a)
    lead = _poly_pow(b[0], deg_a, deadline)
    if deg_a > 1 and not _is_one(h):
        lead = deadline.div(lead, _poly_pow(h, deg_a - 1, deadline))
    return lead if sign > 0 else lead.__neg__()


def _eliminate_variable(p: LaurentPoly, var: int, r: int, deadline: Deadline) -> LaurentPoly:
    """Res_u(p with z_var scaled by u, u^r - 1), u-denominators cleared."""
    n = p.nvars
    j = var - 1
    exps = [e[j] for e in p.terms]
    shift = max(0, -min(exps))

    a: dict[int, dict[ExponentVector, GaussianRational]] = {}
    for e, c in p.terms.items():
        a.setdefault(e[j] + shift, {})[e] = c
    lifted: _UnivPoly = {}
    for t, terms in a.items():
        coeff = LaurentPoly(n)
        coeff.terms.update(terms)
        lifted[t] = coeff

    if _udeg(lifted) == 0:
        return _poly_pow(lifted[0], r, deadline)  # variable absent: every factor is p itself

    b: _UnivPoly = {r: LaurentPoly.constant(n, 1), 0: LaurentPoly.constant(n, -1)}
    res = _resultant_univ(b, lifted, n, deadline)
    # clearing u^-shift scaled the product by (prod of all r-th roots)^shift
    if r % 2 == 0 and shift % 2 == 1:
        res = res.__neg__()
    return res


def iterated_resultant_baseline(
    f: LaurentPoly, r: int, *, timeout: float | None = None
) -> LaurentPoly:
    """cres(f; r) by the defining nested resultants, one variable at a time.

    General-purpose and exact for any r >= 1, but exponentially slower than
    the quick route as r grows; intended for cross-checks at small r. A
    ``timeout`` in seconds raises :class:`BaselineTimeout` cooperatively:
    the deadline is checked before every ring multiplication and exact
    division, so the call overshoots it by at most one such operation.
    """
    if f.is_zero:
        raise ValueError("cyclic resultant of the zero polynomial")
    if r < 1:
        raise ValueError("r must be at least 1")
    _check_budget(f, r)
    deadline = Deadline(math.inf if timeout is None else timeout)
    current = f
    for var in range(1, f.nvars + 1):
        current = _eliminate_variable(current, var, r, deadline)
    return current

