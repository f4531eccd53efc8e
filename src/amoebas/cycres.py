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
  P * flip(P) = E^2 - O^2, the Dandelin-Graeffe root-squaring step: two
  half-size squarings instead of one full product, keyed on one packed
  integer per exponent vector. The packing is offset by the table's least
  exponents, which need not be multiples of the current 2-power, so the
  E/O split reads the parity from the unpacked exponent.
* :func:`iterated_resultant_baseline`, the defining nested resultants
  Res(f(u * z), u^r - 1), any r >= 1, evaluated by fraction-free
  subresultant elimination of the Sylvester system. Dramatically slower;
  exists to cross-check the quick route term by term.

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

DEFAULT_MAX_TERMS = 10_000_000


class TermBudgetError(RuntimeError):
    """Estimated output size exceeds the configured term budget."""


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


def quick_cyclic_resultant(
    f: LaurentPoly, k: int, *, max_terms: int = DEFAULT_MAX_TERMS
) -> LaurentPoly:
    """cres(f; 2^k) by k Graeffe doubling steps per variable.

    After level l in variable j the running product P equals the cyclic
    resultant of f over the 2^l-th roots of unity in variable j alone, so
    its exponents there are multiples of 2^l; flipping the sign of the
    terms whose exponent is not a multiple of 2^(l+1) is then exactly
    evaluation at a primitive 2^(l+1)-th root. With E the unflipped and O
    the flipped terms, P * flip(P) = (E + O)(E - O) = E^2 - O^2, which
    each step computes as two squarings over packed integer exponents;
    the split takes the parity from the unpacked exponent, since the
    packing offset need not keep it (see :func:`_graeffe_step`).
    Variables fold in the order 1..n.
    """
    if f.is_zero:
        raise ValueError("cyclic resultant of the zero polynomial")
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k == 0:
        return f
    estimate = estimate_result_terms(f, 2 ** k)
    if estimate > max_terms:
        raise TermBudgetError(
            f"estimated up to {estimate} output terms, over the budget of {max_terms}"
        )

    den, table, all_real = _int_form(f)
    for j in range(f.nvars):
        for level in range(1, k + 1):
            table = _graeffe_step(table, j, (1 << level) - 1, all_real)
            den *= den
            den, table = _content_reduce(den, table)
    return _from_int_form(f.nvars, den, table)


def _graeffe_step(
    table: dict[ExponentVector, tuple[int, int]], j: int, mask: int, real: bool
) -> dict[ExponentVector, tuple[int, int]]:
    """E^2 - O^2, where O holds the terms whose exponent j has bits in ``mask``.

    Each exponent vector is packed into one int, a mixed-radix number
    whose digit i is e_i - min_i with radix 2 * (max_i - min_i) + 1 over
    this table, so a sum of two keys still has every digit inside its
    radix and decodes uniquely. The split reads the parity from the
    exponent itself, not from its digit: min_i is in general no multiple
    of 2^level (odd negative exponents), so the digit's residue modulo
    2^level need not be the exponent's.
    """
    columns = list(zip(*table))
    lows = [min(column) for column in columns]
    radices = [2 * (max(column) - low) + 1 for column, low in zip(columns, lows)]
    weights = [1]
    for radix in radices[:-1]:
        weights.append(weights[-1] * radix)
    shift = sum(map(operator.mul, lows, weights))

    evens: list[tuple[int, int, int]] = []
    odds: list[tuple[int, int, int]] = []
    for e, (a, b) in table.items():
        key = sum(map(operator.mul, e, weights)) - shift
        (odds if e[j] & mask else evens).append((key, a, b))

    if real:
        acc_real: dict[int, int] = {}
        _square_real(acc_real, evens, 1)
        _square_real(acc_real, odds, -1)
        squared = ((key, (a, 0)) for key, a in acc_real.items() if a)
    else:
        acc_gauss: dict[int, list[int]] = {}
        _square_gaussian(acc_gauss, evens, 1)
        _square_gaussian(acc_gauss, odds, -1)
        squared = ((key, (a, b)) for key, (a, b) in acc_gauss.items() if a or b)

    # a squared key is the sum of two keys: digit i is e_i - 2 * min_i
    bases = [2 * low for low in lows]
    out: dict[ExponentVector, tuple[int, int]] = {}
    for key, ab in squared:
        e = []
        for radix, base in zip(radices, bases):
            key, digit = divmod(key, radix)
            e.append(digit + base)
        out[tuple(e)] = ab
    return out


def _square_real(acc: dict[int, int], terms: list[tuple[int, int, int]], sign: int) -> None:
    """Add sign * (sum of a * z^key)^2 into ``acc``; each pair i < j once, doubled."""
    get = acc.get
    for i, (k1, a1, _) in enumerate(terms):
        k = k1 + k1
        acc[k] = get(k, 0) + sign * a1 * a1
        twice = 2 * sign * a1
        for k2, a2, _ in itertools.islice(terms, i + 1, None):
            k = k1 + k2
            acc[k] = get(k, 0) + twice * a2


def _square_gaussian(
    acc: dict[int, list[int]], terms: list[tuple[int, int, int]], sign: int
) -> None:
    """Add sign * (sum of (a + b i) * z^key)^2 into ``acc`` as [re, im] slots."""
    get = acc.get
    for i, (k1, a1, b1) in enumerate(terms):
        k = k1 + k1
        re = sign * (a1 * a1 - b1 * b1)
        im = 2 * sign * a1 * b1
        slot = get(k)
        if slot is None:
            acc[k] = [re, im]
        else:
            slot[0] += re
            slot[1] += im
        ta = 2 * sign * a1
        tb = 2 * sign * b1
        for k2, a2, b2 in itertools.islice(terms, i + 1, None):
            k = k1 + k2
            re = ta * a2 - tb * b2
            im = ta * b2 + tb * a2
            slot = get(k)
            if slot is None:
                acc[k] = [re, im]
            else:
                slot[0] += re
                slot[1] += im


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
    f: LaurentPoly,
    r: int,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
    timeout: float | None = None,
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
    estimate = estimate_result_terms(f, r)
    if estimate > max_terms:
        raise TermBudgetError(
            f"estimated up to {estimate} output terms, over the budget of {max_terms}"
        )
    deadline = Deadline(math.inf if timeout is None else timeout)
    current = f
    for var in range(1, f.nvars + 1):
        current = _eliminate_variable(current, var, r, deadline)
    return current

