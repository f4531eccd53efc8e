"""Acceptance gate: one test group per numbered criterion.

Each criterion is checked at its stated tolerance.  The per-criterion
verdict table is printed by the conftest terminal summary hook.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas.bench import coeff_digits, run_case
from amoebas.cycres import iterated_resultant_baseline, quick_cyclic_resultant
from amoebas.gridsolver import GridSpec, approximate_amoeba
from amoebas.lopsided import TermTable, choose_level, is_lopsided
from amoebas.newton import newton
from amoebas.poly import LaurentPoly, mul, parse
from amoebas.semialg import semialg_description
from conftest import nonzero_coefficients, polys, rational_points
from oracles import (
    CUBIC,
    CUBIC_B2,
    CUBIC_BM4,
    GAUSS_CUBIC,
    GOLDEN_CUBIC_K2,
    LADDER_DEGREES,
    LADDER_DIGITS_K6,
    LADDER_TERMS,
    LINE,
    SEVEN_TERM_3VAR,
    boundary_centers,
    epsilon_for_grid,
    evaluate_complex,
    flip_signs,
    line_unlog_member,
    poisson_numeric_oracle,
    raster_axis,
)


def int_terms(p):
    return {e: int(c.re) for e, c in p.terms.items()}


# -- 1: the level-2 fold of the running cubic, exactly ------------------------


def test_criterion_01_golden_listing(cubic):
    t0 = time.perf_counter()
    g = quick_cyclic_resultant(cubic, 2)
    elapsed = time.perf_counter() - t0
    assert int_terms(g) == GOLDEN_CUBIC_K2
    assert elapsed < 10.0


# -- 2: size ladder at levels 1..6 ---------------------------------------------


def test_criterion_02_size_ladder(cubic):
    t0 = time.perf_counter()
    for k in sorted(LADDER_TERMS):
        g = quick_cyclic_resultant(cubic, k)
        assert g.num_terms == LADDER_TERMS[k], f"level {k} term count"
        assert g.total_degree() == LADDER_DEGREES[k], f"level {k} degree"
        if k == 6:
            lo, hi = LADDER_DIGITS_K6
            assert lo <= coeff_digits(g) <= hi
    assert time.perf_counter() - t0 < 300.0


# -- 3: quick route equals the elimination baseline exactly -------------------


def test_criterion_03_baseline_equality():
    cases = ((CUBIC, 2, (1, 2, 3)), (GAUSS_CUBIC, 2, (1, 2)), (SEVEN_TERM_3VAR, 3, (1,)))
    for expr, nvars, levels in cases:
        f = parse(expr, nvars)
        for k in levels:
            assert quick_cyclic_resultant(f, k) == iterated_resultant_baseline(f, 1 << k), (
                f"{expr} at level {k}"
            )


# -- 4: at level 4 the quick route wins by 10x --------------------------------

# the baseline deadline; a baseline that runs past it took at least this
# long, so the factor is proven once the quick route is 10x under it
BASELINE_TIMEOUT_S = 3.0


def test_criterion_04_speed_factor(cubic):
    r = run_case("cubic", cubic, 4, timeout=BASELINE_TIMEOUT_S)
    assert r.error is None
    if r.timed_out:
        assert 10 * r.quick_seconds <= BASELINE_TIMEOUT_S
    else:
        assert r.factor >= 10.0


# -- 5: points of the zero set are never certified -----------------------------


def test_criterion_05_no_false_certificates(cubic):
    # z1 walks a log-spaced magnitude grid with a turning phase; z2 solves
    # the frozen cubic z2^3 + z1*z2 + (z1^3 + 1) exactly to float precision
    pts = []
    for m, t in enumerate(np.linspace(-1.2, 1.2, 34)):
        z1 = math.exp(t) * np.exp(2j * math.pi * (m * 0.381966))
        for z2 in np.roots([1.0, 0.0, z1, z1**3 + 1.0]):
            if abs(z2) > 1e-9 and len(pts) < 100:
                pts.append((Fraction(math.log(abs(z1))), Fraction(math.log(abs(z2)))))
    assert len(pts) == 100
    for level in range(5):
        g = cubic if level == 0 else quick_cyclic_resultant(cubic, level)
        table = TermTable(g, level)
        for w in pts:
            cert = table.certificate(w)
            assert not cert.lopsided, (
                f"level {level} certified a point of the zero set, margin {cert.margin}"
            )


# -- 6: numeric agreement with the direct root-of-unity product ---------------


def test_criterion_06_numeric_oracle(cubic):
    rng = np.random.default_rng(11)
    pts = [
        (
            rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        for _ in range(50)
    ]
    for k in (1, 2):
        g = quick_cyclic_resultant(cubic, k)
        for pt in pts:
            want = poisson_numeric_oracle(cubic, 1 << k, pt)
            got = evaluate_complex(g, pt)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


# -- 7: component orders -------------------------------------------------------


def test_criterion_07_orders(cubic):
    cert = is_lopsided(parse(CUBIC_BM4, 2), (0, 0))
    assert cert.lopsided and cert.level == 0
    assert cert.dominant == (1, 1)

    hull_orders = set(newton(cubic))
    assert len(hull_orders) == 10
    spec = GridSpec(-2, 2, Fraction(1, 10), 2)
    for rec in approximate_amoeba(cubic, spec, kmax=3):
        if not rec.in_amoeba:
            assert rec.order in hull_orders


# -- 8: the linear amoeba, grid band and raster cells --------------------------


def _log_boundary_samples():
    t = np.linspace(-6.0, 2.5, 8000)
    upper = np.column_stack([t, np.log(np.exp(t) + 1.0)])  # x2 = x1 + 1
    lower = upper[:, ::-1]  # x1 = x2 + 1
    s = np.linspace(-12.0, -1e-9, 8000)
    inner = np.column_stack([s, np.log(-np.expm1(s))])  # x1 + x2 = 1
    return np.vstack([upper, lower, inner])


def test_criterion_08_grid_band():
    f = parse(LINE, 2)
    spec = GridSpec(-2, 2, Fraction(1, 10), 2)
    eps = epsilon_for_grid(spec)
    assert eps == pytest.approx(math.sqrt(2) / 20)
    boundary = _log_boundary_samples()
    records = approximate_amoeba(f, spec, kmax=3)
    for rec in records:
        w = np.array([float(x) for x in rec.point])
        truly_inside = line_unlog_member(math.exp(w[0]), math.exp(w[1]))
        if rec.in_amoeba != truly_inside:
            dist = np.min(np.hypot(*(boundary - w).T))
            assert dist <= eps, f"misclassified {rec.point} at distance {dist}"


def _line_k1_boundary_samples(lo, hi, n=20000):
    """Dense samples of the exact level-1 certificate boundary of LINE.

    With u = x1^2, v = x2^2 the level-1 fold's terms have magnitudes
    u^2, v^2, 2uv, 2u, 2v and 1.  Only the three candidate terms can
    dominate (2uv <= u^2 + v^2, 2u <= u^2 + 1, 2v <= v^2 + 1), and each
    branch closes in on a quadratic:
      order (0,1): v^2 > (u+1)^2 + 2v(u+1)  <=>  v > (1+sqrt2)(1+u)
      order (1,0): the same with x1 and x2 swapped
      order (0,0): 1 > (u+v)^2 + 2(u+v)     <=>  u + v < sqrt2 - 1
    The samples are clipped to the box [lo, hi]^2.
    """
    t = np.linspace(lo, hi, n)
    upper = np.column_stack([t, np.sqrt((1.0 + math.sqrt(2.0)) * (1.0 + t * t))])
    lower = upper[:, ::-1]
    theta = np.linspace(0.0, math.pi / 2, n)
    inner = math.sqrt(math.sqrt(2.0) - 1.0) * np.column_stack([np.cos(theta), np.sin(theta)])
    curves = np.vstack([upper, lower, inner])
    return curves[np.all((curves >= lo) & (curves <= hi), axis=1)]


def _nearest_distances(a, b):
    """For each row of a, the distance to the nearest row of b."""
    chunk = max(1, (1 << 20) // len(b))  # about 1M distances per block
    return np.concatenate(
        [
            np.min(np.linalg.norm(a[i : i + chunk, None, :] - b[None, :, :], axis=2), axis=1)
            for i in range(0, len(a), chunk)
        ]
    )


def test_criterion_08_raster_cells():
    lo, hi, res = Fraction(1, 20), Fraction(3), 512
    raster = semialg_description(parse(LINE, 2), 1).rasterize(lo, hi, res)
    step = float(hi - lo) / (res - 1)
    diag = step * math.sqrt(2)
    # the level-1 region is drawn, so the reference is the exact level-1
    # boundary; near x1 = 0 it bulges to x2 = sqrt(1+sqrt2) ~ 1.554, away
    # from the amoeba edge x2 = x1 + 1
    curves = _line_k1_boundary_samples(float(lo), float(hi))
    centers = boundary_centers(raster)
    assert centers, "no boundary cells found at 512x512"
    cells = np.array([[float(c[0]), float(c[1])] for c in centers])
    worst = float(np.max(_nearest_distances(cells, curves)))
    assert worst <= diag, (
        f"worst boundary-cell distance {worst:.6f} exceeds one cell diagonal {diag:.6f}"
    )
    # every part of the exact boundary is drawn, not only some of it
    gap = float(np.max(_nearest_distances(curves, cells)))
    assert gap <= diag, f"boundary point {gap:.6f} from any boundary cell, over {diag:.6f}"
    # the region always contains the amoeba: no certified sample is in it
    axis = [float(x) for x in raster_axis(lo, hi, res)]
    inside = [
        (axis[i], axis[j])
        for i, j in np.argwhere(~raster.mask)
        if line_unlog_member(axis[i], axis[j])
    ]
    assert not inside, f"{len(inside)} certified samples lie in the amoeba, e.g. {inside[0]}"


# -- 9: the level picker's frozen value ----------------------------------------


def test_criterion_09_choose_level():
    assert choose_level(2, 3, Fraction(1, 2)) == 7


# -- 10: the central hole across coefficient choices ---------------------------


def test_criterion_10_central_hole():
    spec = GridSpec(-2, 2, Fraction(1, 20), 2)
    assert spec.count == 81

    hole = [
        rec
        for rec in approximate_amoeba(parse(CUBIC_B2, 2), spec, kmax=4)
        if not rec.in_amoeba and rec.order == (1, 1)
    ]
    assert hole, "no (1,1) component found for b=2"
    assert all(all(abs(x) <= Fraction(1, 2) for x in rec.point) for rec in hole)
    assert any(rec.level in (3, 4) for rec in hole)

    deep_hole = [
        rec
        for rec in approximate_amoeba(parse(CUBIC_BM4, 2), spec, kmax=4)
        if not rec.in_amoeba and rec.order == (1, 1)
    ]
    assert deep_hole, "no (1,1) component found for b=-4"
    assert all(rec.level == 0 for rec in deep_hole)


# -- 11: five property suites at a thousand cases each -------------------------


@given(polys(2, max_terms=5), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=1000)
def test_criterion_11_flip_involution(p, var, level):
    assert flip_signs(flip_signs(p, var, level), var, level) == p


@given(
    polys(2, max_terms=3, lo=-2, hi=2),
    polys(2, max_terms=3, lo=-2, hi=2),
    st.integers(1, 2),
)
@settings(max_examples=1000)
def test_criterion_11_multiplicative(f, g, k):
    assert quick_cyclic_resultant(mul(f, g), k) == mul(
        quick_cyclic_resultant(f, k), quick_cyclic_resultant(g, k)
    )


@given(polys(1, max_terms=4, lo=0, hi=6), st.integers(1, 4))
@settings(max_examples=1000)
def test_criterion_11_univariate_sparsity(f, k):
    assert quick_cyclic_resultant(f, k).num_terms <= f.total_degree() + 1


@given(polys(2, max_terms=4), st.integers(1, 2))
@settings(max_examples=1000)
def test_criterion_11_degree_identity(f, k):
    assert quick_cyclic_resultant(f, k).total_degree() == (
        (1 << (k * f.nvars)) * f.total_degree()
    )


@given(polys(2, max_terms=5), rational_points(2), nonzero_coefficients)
@settings(max_examples=1000)
def test_criterion_11_scale_invariant_peak(p, w, c):
    base = TermTable(p).certificate(w)
    scaled = TermTable(mul(p, LaurentPoly.constant(2, c))).certificate(w)
    assert base.lopsided == scaled.lopsided
    if base.lopsided:
        assert base.dominant == scaled.dominant
