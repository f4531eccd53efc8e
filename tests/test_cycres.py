"""The folded product against its definition, its baseline, and itself."""

import hashlib
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas import cycres
from amoebas.cycres import (
    MAX_TERMS,
    BaselineTimeout,
    TermBudgetError,
    estimate_result_terms,
    iterated_resultant_baseline,
    quick_cyclic_resultant,
)
from amoebas.poly import LaurentPoly, format_poly, parse
from conftest import polys
from oracles import (
    OVER_BUDGET,
    CUBIC,
    FOLD_LISTING_SHA256,
    GAUSS_PAIR,
    GOLDEN_CUBIC_K2,
    LINE,
    LINE_K1,
    THREE_VAR,
    evaluate_complex,
    flip_multiply_fold,
    poisson_numeric_oracle,
    sylvester_resultant_direct,
)


def as_int_dict(p):
    out = {}
    for e, c in p.terms.items():
        assert not c.im and c.re.denominator == 1
        out[e] = int(c.re)
    return out


def test_level_zero_is_identity(cubic):
    assert quick_cyclic_resultant(cubic, 0) is cubic


def test_golden_level_two(cubic):
    g = quick_cyclic_resultant(cubic, 2)
    assert as_int_dict(g) == GOLDEN_CUBIC_K2


def test_line_level_one():
    g = quick_cyclic_resultant(parse(LINE, 2), 1)
    assert as_int_dict(g) == LINE_K1


def test_univariate_poisson_closed_form():
    # (z+1) over the square roots of unity: (z+1)(-z+1) = 1 - z^2
    g = quick_cyclic_resultant(parse("z1 + 1", 1), 1)
    assert as_int_dict(g) == {(2,): -1, (0,): 1}
    # a monomial folds to a scaled power: b*z^a -> b^2 * (-1)^a * z^(2a)
    for a, want_sign in ((1, -1), (2, 1), (3, -1)):
        m = quick_cyclic_resultant(LaurentPoly(1, {(a,): 3}), 1)
        assert as_int_dict(m) == {(2 * a,): 9 * want_sign}


def test_fold_listings_match_golden_digests():
    for (text, nvars, level), digest in FOLD_LISTING_SHA256.items():
        listing = format_poly(quick_cyclic_resultant(parse(text, nvars), level))
        assert hashlib.sha256(listing.encode()).hexdigest() == digest, (text, level)


# (nvars, most terms, highest level); n = 3 stops at level 2 because at
# level 3 a five-term input in [-3, 3]^3 can exceed the default term
# budget and the full-product reference then runs for minutes
_FOLD_SIZES = st.sampled_from([(1, 5, 3), (2, 4, 3), (3, 3, 2)])


@given(
    _FOLD_SIZES.flatmap(
        lambda size: st.tuples(polys(size[0], max_terms=size[1], lo=-3, hi=3), st.integers(1, size[2]))
    )
)
@settings(max_examples=120)
def test_graeffe_step_equals_flip_multiply(case):
    f, k = case
    assert quick_cyclic_resultant(f, k) == flip_multiply_fold(f, k)


def assert_resumes(f, k):
    """Every fold from a level j < k equals the fold from scratch."""
    folds = [f] + [quick_cyclic_resultant(f, j) for j in range(1, k + 1)]
    for j in range(k):
        assert quick_cyclic_resultant(f, k, start=(j, folds[j])) == folds[k], (j, k)


@given(
    _FOLD_SIZES.flatmap(
        lambda size: st.tuples(polys(size[0], max_terms=size[1], lo=-3, hi=3), st.integers(1, size[2]))
    )
)
@settings(max_examples=80)
def test_resumed_folds_equal_the_fold_from_scratch(case):
    # Gaussian coefficients and exponents down to -3, so odd negative
    # lows, whose packing offsets are no multiple of 2^level
    assert_resumes(*case)


@pytest.mark.parametrize(
    "text, nvars, level",
    [*FOLD_LISTING_SHA256, ("z1^-3 + z1^-1*z2 + (2+1i)", 2, 3), ("z1^-5 + z1^3 - 7", 1, 6)],
)
def test_fold_inputs_resume_from_every_lower_level(text, nvars, level):
    assert_resumes(parse(text, nvars), level)


def test_a_resumed_fold_runs_only_its_own_steps(cubic, monkeypatch):
    # level 3 from level 1 takes levels 2 and 3 of each variable
    g = quick_cyclic_resultant(cubic, 1)
    masks = []
    step = cycres._graeffe_step

    def spy(table, weights, radices, var, offset, mask):
        masks.append((var, mask))
        return step(table, weights, radices, var, offset, mask)

    monkeypatch.setattr(cycres, "_graeffe_step", spy)
    quick_cyclic_resultant(cubic, 3, start=(1, g))
    assert masks == [(0, 3), (0, 7), (1, 3), (1, 7)]


def test_a_resumed_fold_starts_below_its_level(cubic):
    g = quick_cyclic_resultant(cubic, 2)
    for level in (2, 3, -1):
        with pytest.raises(ValueError):
            quick_cyclic_resultant(cubic, 2, start=(level, g))


def spy_boxes(mp):
    """Record (container type, list length or None, pair products) of every step's box."""
    boxes, calls = [], []
    step, square = cycres._graeffe_step, cycres._square

    def graeffe_step(*args):
        out = step(*args)
        first = calls[0][0]
        pairs = sum(n * (n + 1) // 2 for acc, n in calls if acc is first)
        boxes.append((type(first), len(first) if type(first) is list else None, pairs))
        calls.clear()
        return out

    def spy_square(acc, terms, sign):
        calls.append((acc, len(terms)))
        square(acc, terms, sign)

    mp.setattr(cycres, "_graeffe_step", graeffe_step)
    mp.setattr(cycres, "_square", spy_square)
    return boxes


def within_bound(boxes):
    return all(
        size is None or size <= cycres._DENSE_SLOTS_PER_PAIR * (pairs + 16)
        for _, size, pairs in boxes
    )


# sizes whose boxes stay small when every step is forced onto a list
_LIST_SIZES = st.sampled_from([(1, 5, 3), (2, 4, 3), (3, 3, 1)])


@given(
    _LIST_SIZES.flatmap(
        lambda size: st.tuples(polys(size[0], max_terms=size[1], lo=-3, hi=3), st.integers(1, size[2]))
    )
)
@settings(max_examples=60)
def test_list_and_dict_boxes_equal_flip_multiply(case):
    # the same squaring loop, once on a list over every step's slot box
    # and once on a dict of packed keys, against the independent product
    f, k = case
    want = flip_multiply_fold(f, k)
    for density, kind in ((10**9, list), (0, defaultdict)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycres, "_DENSE_SLOTS_PER_PAIR", density)
            boxes = spy_boxes(mp)
            assert quick_cyclic_resultant(f, k) == want
        assert boxes and all(type_ is kind for type_, _, _ in boxes)


@pytest.mark.parametrize(
    "text, nvars, level",
    [
        # a list over the box would take 4.2M slots for 46 terms
        ("z1^40 + z2^40 + z3^40 + z1*z2*z3 + 1", 3, 1),
        ("z1^100*z2 + z2^100 + z1 + 1", 2, 2),
    ],
)
def test_sparse_supports_square_into_a_dict(text, nvars, level, monkeypatch):
    f = parse(text, nvars)
    want = flip_multiply_fold(f, level)
    tracemalloc.start()
    try:
        got = quick_cyclic_resultant(f, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # list-only boxes peak at 33 MB and 2.6 MB here; the dicts under 0.2 MB
    assert peak < 1 << 20
    boxes = spy_boxes(monkeypatch)
    assert quick_cyclic_resultant(f, level) == want
    assert any(type_ is defaultdict for type_, _, _ in boxes)
    assert within_bound(boxes)


def test_fold_inputs_square_into_bounded_lists(monkeypatch):
    boxes = spy_boxes(monkeypatch)
    for text, nvars, level in ((CUBIC, 2, 4), (GAUSS_PAIR, 2, 3), (THREE_VAR, 3, 2)):
        assert quick_cyclic_resultant(parse(text, nvars), level) == flip_multiply_fold(
            parse(text, nvars), level
        )
    assert any(type_ is list for type_, _, _ in boxes)
    assert within_bound(boxes)


@pytest.mark.parametrize(
    "text, nvars, levels",
    [
        # a monomial: E or O is empty at every step
        ("(2-3i)*z1^-3*z2^2", 2, (1, 2, 3)),
        # even in z1: O is empty at level 1 of z1
        ("z1^2 + 3*z1^-2*z2 - z2^-1", 2, (1, 2, 3)),
        # odd negative exponents: a packing offset that is no multiple of
        # 2^level would misread their parity
        ("z1^-3 + z1^-1*z2 + 1", 2, (1, 2, 3)),
        # exponents reach 2^17
        ("z1^2 + z1 + 1", 1, (16,)),
        # real E, Gaussian O at level 1: the step squares three times
        ("(0+1i)*z1 + 1", 1, (1, 2, 3)),
        # Gaussian E, real O
        ("z1 + (2+1i)", 1, (1, 2, 3)),
        # a + b = 0: the (A + B)^2 square has a zero coefficient
        ("(1-1i)*z1*z2 + z2 + 1", 2, (1, 2, 3)),
        # z2 is absent: its packing radix is 1
        ("z1^2 - 3*z1 + (1+2i)", 2, (1, 2, 3)),
    ],
)
def test_graeffe_step_edge_cases(text, nvars, levels):
    f = parse(text, nvars)
    for k in levels:
        assert quick_cyclic_resultant(f, k) == flip_multiply_fold(f, k)


def test_mixed_inputs_match_baseline():
    cases = ((CUBIC, 2, (1, 2)), (GAUSS_PAIR, 2, (1,)), (THREE_VAR, 3, (1,)))
    for expr, nvars, levels in cases:
        f = parse(expr, nvars)
        for k in levels:
            assert iterated_resultant_baseline(f, 1 << k) == quick_cyclic_resultant(f, k)


def test_baseline_handles_odd_r(cubic):
    # r = 3 has no doubling route; the baseline is the only exact path
    g = iterated_resultant_baseline(cubic, 3)
    assert g.total_degree() == 3 ** 2 * 3
    got = evaluate_complex(g, (1.1 + 0.2j, 0.7 - 0.4j))
    want = poisson_numeric_oracle(cubic, 3, (1.1 + 0.2j, 0.7 - 0.4j))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


@given(polys(2, max_terms=3, lo=0, hi=2), st.integers(1, 2))
@settings(max_examples=60)
def test_quick_equals_baseline_property(f, k):
    assert quick_cyclic_resultant(f, k) == iterated_resultant_baseline(f, 1 << k)


def relabel(p, perm):
    """p with variable i renamed perm[i]: exponent e becomes e' with e'[perm[i]] = e[i]."""
    out = {}
    for e, c in p.terms.items():
        moved = [0] * p.nvars
        for i, v in enumerate(e):
            moved[perm[i]] = v
        out[tuple(moved)] = c
    return LaurentPoly(p.nvars, out)


def test_var_order_does_not_change_result():
    # folding the relabelled input visits the variables in the permuted
    # order; since the factors commute it must equal the relabelled fold
    cases = (
        ("(2-1i)*z1*z2^-2 - 3/4 + z1^2 + (1+1i)*z2", 2, (3,), [(1, 0)]),
        (
            "z1*z2*z3^-1 + z1^2 + 2*z2 - 3*z3 + 1",
            3,
            (1, 2),
            [(1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)],
        ),
    )
    for text, nvars, levels, perms in cases:
        f = parse(text, nvars)
        for k in levels:
            g = quick_cyclic_resultant(f, k)
            for perm in perms:
                swapped = quick_cyclic_resultant(relabel(f, perm), k)
                assert swapped == relabel(g, perm), (text, k, perm)
                assert swapped != g, (text, k, perm)  # the relabelling is visible


def test_poisson_oracle_agreement(cubic):
    rng = np.random.default_rng(7)
    for k in (1, 2):
        g = quick_cyclic_resultant(cubic, k)
        for _ in range(10):
            pt = tuple(
                complex(a, b)
                for a, b in rng.uniform(-1.5, 1.5, size=(2, 2))
            )
            want = poisson_numeric_oracle(cubic, 1 << k, pt)
            got = evaluate_complex(g, pt)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_oracle_guards():
    f = parse(LINE, 2)
    with pytest.raises(ValueError):
        poisson_numeric_oracle(f, 300, (1, 1))
    with pytest.raises(ValueError):
        poisson_numeric_oracle(f, 2, (0, 1))
    with pytest.raises(ValueError):
        poisson_numeric_oracle(f, 2, (1,))


def test_term_budget_enforced():
    f = parse(OVER_BUDGET, 2)
    assert estimate_result_terms(f, 2) == 6001**2 > MAX_TERMS
    with pytest.raises(TermBudgetError, match="over the budget of 10000000"):
        quick_cyclic_resultant(f, 1)
    with pytest.raises(TermBudgetError, match="over the budget of 10000000"):
        iterated_resultant_baseline(f, 2)


def test_estimate_bounds_actual(cubic):
    for k in (1, 2, 3):
        actual = quick_cyclic_resultant(cubic, k).num_terms
        assert actual <= estimate_result_terms(cubic, 1 << k)


def test_baseline_timeout_fires(cubic):
    with pytest.raises(BaselineTimeout):
        iterated_resultant_baseline(cubic, 16, timeout=1e-6)


def test_baseline_checks_deadline_before_every_ring_step(cubic, monkeypatch):
    # one multiplication or exact division at most runs between two
    # deadline checks, which bounds the overshoot by one ring step
    from amoebas import cycres

    run = {"since": 0, "worst": 0}
    check = cycres.Deadline.check

    def counted_check(self):
        run["since"] = 0
        check(self)

    def counted(op):
        def wrapper(a, b):
            run["since"] += 1
            run["worst"] = max(run["worst"], run["since"])
            return op(a, b)

        return wrapper

    monkeypatch.setattr(cycres.Deadline, "check", counted_check)
    monkeypatch.setattr(cycres, "mul", counted(cycres.mul))
    monkeypatch.setattr(cycres, "exact_div", counted(cycres.exact_div))
    got = iterated_resultant_baseline(cubic, 4, timeout=600.0)
    monkeypatch.undo()
    assert got == quick_cyclic_resultant(cubic, 2)
    assert run["worst"] == 1


def test_zero_and_negative_level_rejected(cubic):
    with pytest.raises(ValueError):
        quick_cyclic_resultant(LaurentPoly(2), 1)
    with pytest.raises(ValueError):
        quick_cyclic_resultant(cubic, -1)
    with pytest.raises(ValueError):
        iterated_resultant_baseline(cubic, 0)


def test_sylvester_direct_cross_check():
    # Res_u(u^2 - 1, z1*u + 1) = (z1 + 1)(-z1 + 1) = 1 - z1^2
    one = LaurentPoly.constant(1, 1)
    a = {2: one, 0: LaurentPoly.constant(1, -1)}
    b = {1: parse("z1", 1), 0: one}
    got = sylvester_resultant_direct(a, b, 1)
    assert got == parse("1 - z1^2", 1)


def test_laurent_input_folds_cleanly():
    f = parse("z1*z2^-1 + z1^-1 + 1", 2)
    for k in (1, 2):
        quick = quick_cyclic_resultant(f, k)
        base = iterated_resultant_baseline(f, 1 << k)
        assert quick == base
        r = 1 << k
        assert all(e[0] % r == 0 and e[1] % r == 0 for e in quick.terms)


def test_runtime_grows_polynomially_in_level():
    # output stays 3 terms at every level, so the work per level is flat
    # and total time is polynomial in k = log2(r), not in r
    f = parse("z1^2 + z1 + 1", 1)
    sizes, times = [], []
    for k in range(4, 17, 2):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            g = quick_cyclic_resultant(f, k)
            best = min(best, time.perf_counter() - t0)
        assert g.num_terms <= 3
        sizes.append(k * math.log(2))
        times.append(math.log(max(best, 1e-7)))
    slope = np.polyfit(sizes, times, 1)[0]
    assert slope <= 1.3, f"log-log slope {slope:.2f} suggests superpolynomial scaling"
