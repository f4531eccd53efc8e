"""One-term-beats-the-rest tests: margins, ties, certificates, level picking."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas.lopsided import (
    LEVEL_CAP,
    TAU,
    Certificate,
    CertificateError,
    TermTable,
    choose_level,
    is_lopsided,
    order_from_certificate,
    peak_margins,
    point_numerators,
)
from amoebas.cycres import quick_cyclic_resultant
from amoebas.poly import parse
from conftest import polys, rational_points
from oracles import CUBIC, CUBIC_BM4, LINE, sorted_margins


def mp_margin(p, w, dominant):
    """60-digit recomputation of the margin at the library's own peak."""
    with mpmath.workdps(60):
        vals = []
        for e, c in p.sorted_terms():
            sq = c.abs_squared()
            v = mpmath.log(mpmath.mpf(sq.numerator) / mpmath.mpf(sq.denominator)) / 2
            v += mpmath.fsum(
                ei * mpmath.mpf(wi.numerator) / wi.denominator
                for ei, wi in zip(e, w)
            )
            vals.append((e, v))
        peak = next(v for e, v in vals if e == dominant)
        rest = mpmath.fsum(mpmath.exp(v) for e, v in vals if e != dominant)
        return float(peak - mpmath.log(rest))


@given(polys(2, max_terms=5).filter(lambda p: p.num_terms >= 2), rational_points(2))
@settings(max_examples=150)
def test_margin_matches_high_precision(p, w):
    cert = TermTable(p).certificate(w)
    want = mp_margin(p, tuple(Fraction(x) for x in w), cert.dominant)
    assert cert.margin == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_batched_rows_match_single_points(cubic):
    table = TermTable(cubic)
    rng = np.random.default_rng(3)
    pts = [
        (
            Fraction(int(rng.integers(-12, 13)), int(rng.choice([1, 2, 3, 4, 6, 8]))),
            Fraction(int(rng.integers(-12, 13)), int(rng.choice([1, 2, 3, 4, 6, 8]))),
        )
        for _ in range(40)
    ]
    den = math.lcm(*(x.denominator for pt in pts for x in pt))
    rows = [tuple(int(x * den) for x in pt) for pt in pts]
    ok, idx, lopsided = table.classify(rows, den)
    peaks, margin = peak_margins(table.values(rows, den))
    assert (idx == peaks).all()
    for i, pt in enumerate(pts):
        cert = table.certificate(pt)
        assert cert.lopsided == bool(ok[i]) == bool(lopsided[i])
        assert cert.dominant == table.exponents[int(idx[i])]
        assert cert.margin == float(margin[i])  # same floats, not just close


def test_denominator_scaling_is_exact(cubic):
    # scaling numerators and denominator together must not move a single bit
    table = TermTable(cubic)
    rows = [(3, -2), (7, 5), (-1, 0)]
    idx1, m1 = peak_margins(table.values(rows, 4))
    idx2, m2 = peak_margins(table.values([(3 * r[0], 3 * r[1]) for r in rows], 12))
    assert (idx1 == idx2).all()
    assert (m1 == m2).all()


def test_tie_breaks_to_graded_lex_peak():
    cert = TermTable(parse("z1 + z2", 2)).certificate((0, 0))
    assert cert.dominant == (1, 0)
    assert cert.margin == 0.0
    assert not cert.lopsided  # a dead tie certifies nothing


def test_three_way_tie_not_lopsided():
    cert = is_lopsided(parse("z1 + z2 + 1", 2), (0, 0))
    assert not cert.lopsided
    assert cert.margin == pytest.approx(-math.log(2), abs=1e-15)


def test_single_term_is_always_lopsided():
    cert = is_lopsided(parse("3*z1", 1), (Fraction(5, 7),))
    assert cert.lopsided
    assert cert.margin == math.inf
    assert order_from_certificate(cert) == (1,)


def test_dominant_term_at_origin():
    cert = is_lopsided(parse(CUBIC_BM4, 2), (0, 0))
    assert cert.lopsided
    assert cert.dominant == (1, 1)
    assert cert.level == 0
    assert cert.margin == pytest.approx(math.log(Fraction(4, 3)), abs=1e-12)
    assert order_from_certificate(cert) == (1, 1)


def test_order_unscales_by_level():
    # at level 1 in two variables every exponent carries a factor of 4
    cert = Certificate(True, (4, 0), 1.0, 1)
    assert order_from_certificate(cert) == (1, 0)
    cert = Certificate(True, (8, 12), 2.0, 1)
    assert order_from_certificate(cert) == (2, 3)


def test_order_requires_a_passing_certificate():
    with pytest.raises(CertificateError):
        order_from_certificate(Certificate(False, (4, 0), -1.0, 1))


def test_order_rejects_non_divisible_dominant():
    with pytest.raises(CertificateError):
        order_from_certificate(Certificate(True, (3, 0), 1.0, 1))


def test_level_one_order_on_the_line():
    folded = quick_cyclic_resultant(parse(LINE, 2), 1)
    cert = TermTable(folded, 1).certificate((3, 0))
    assert cert.lopsided
    assert cert.dominant == (4, 0)
    assert order_from_certificate(cert) == (1, 0)


def test_table_orders_divide_by_level():
    folded = quick_cyclic_resultant(parse(LINE, 2), 1)
    table = TermTable(folded, 1)
    assert dict(zip(table.exponents, table.orders)) == {
        (4, 0): (1, 0), (2, 2): None, (0, 4): (0, 1),
        (2, 0): None, (0, 2): None, (0, 0): (0, 0),
    }


def test_undivisible_peak_certifies_nothing():
    # z1 + 1 read as a level-1 fold: at w = 1 the peak z1 is lopsided,
    # but its exponent 1 is not divisible by 2, so it has no order
    table = TermTable(parse("z1 + 1", 1), 1)
    ok, idx, lopsided = table.classify([(1,)], 1)
    assert lopsided[0] and table.exponents[int(idx[0])] == (1,)
    assert not ok[0]
    fok, _, flopsided = table.float_classify(np.array([[1.0]]))
    assert flopsided[0] and not fok[0]
    cert = table.certificate((1,))
    assert cert.lopsided and cert.level == 1
    with pytest.raises(CertificateError):
        order_from_certificate(cert)


@functools.lru_cache(maxsize=None)
def unit_table(t):
    """t terms z1..zt with coefficient 1: float_values(w) is w itself."""
    return TermTable(parse(" + ".join(f"z{i}" for i in range(1, t + 1)), t))


@st.composite
def bracket_rows(draw, t):
    """One row of t log magnitudes with a gap planted near a bracket edge.

    The second-largest value m2 is repeated ``ties`` times; with every
    other value at m2 the margin is exactly gap - log(t - 1), so a gap
    of log(t - 1) + TAU sits on the margin threshold, log(t - 1) + 1e-6
    + TAU on the accept edge and TAU on the reject edge.  The last kind
    of row has uneven values just below an m2 near 0, whose sorted and
    unsorted sums differ in their last bits, and its peak sits on the
    threshold of the sorted margin.  Each is moved a few ulps either way.
    """
    m2 = draw(st.floats(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if t == 1:
        row = [m2]
    else:
        ln = math.log(t - 1)
        gap = draw(st.sampled_from([0.0, TAU, ln + TAU, ln + 1e-6 + TAU, 2 * ln + 1.0, 40.0, None]))
        if gap is None:
            m2 = draw(st.floats(-1, 1))
            others = [m2] + (m2 - rng.uniform(0, 1, t - 2)).tolist()
            ascending = np.sort(np.exp(np.array(others) - m2))
            peak = (m2 + np.log(np.cumsum(ascending)[-1])) + TAU
        else:
            ties = draw(st.one_of(st.just(t - 1), st.integers(1, t - 1)))
            lows = m2 - rng.uniform(0, 800, t - 1 - ties)  # exp underflows to 0 below -745
            others = [m2] * ties + lows.tolist()
            peak = m2 + gap
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            peak = math.nextafter(peak, math.copysign(math.inf, ulps))
        row = [float(peak)] + others
    if draw(st.integers(0, 4)) == 0:  # non-finite entries in one row of five
        for j in draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=3)):
            row[j] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return rng.permutation(row).tolist()


@st.composite
def bracket_batches(draw):
    t = draw(st.sampled_from([1, 2, 3, 4, 7, 30, 257]))
    n = draw(st.sampled_from([1, 2, 17]))
    return np.array(draw(st.lists(bracket_rows(t), min_size=n, max_size=n)), dtype=np.float64)


@given(bracket_batches())
@settings(max_examples=400)
def test_gap_bracket_matches_full_margins(values):
    # every verdict the bracket decides without an exp must be the one
    # the full log-sum gives, bit for bit, whatever the batch
    table = unit_table(values.shape[1])
    with np.errstate(invalid="ignore"):  # inf - inf in the planted rows
        peaks, margin = peak_margins(values)
        want = margin > TAU
        ok, idx, lopsided = table._certify(values.copy())
        assert (idx == peaks).all()
        assert (lopsided == want).all()
        assert (ok == want).all()  # every unit exponent carries an order at level 0
        for i in range(len(values)):
            _, one_idx, one = table._certify(values[i : i + 1].copy())
            assert one_idx[0] == peaks[i] and one[0] == want[i]
    if np.isfinite(values).all():
        assert np.array_equal(table.float_values(values), values)
        _, fidx, flopsided = table.float_classify(values)
        assert (fidx == peaks).all() and (flopsided == want).all()


def _band_batch(rng, n, t):
    """n rows of t values, each with its gap p - m2 inside the bracket's
    band (TAU, log(t - 1) + 1e-6 + TAU]; a third of them put the margin
    within a few ulps of TAU, where the band sorts its sum."""
    m2 = rng.uniform(-1.0, 1.0, n)
    others = np.minimum(rng.uniform(-30.0, 5.0, (n, t - 1)), m2[:, None])
    others[:, 0] = m2
    others[::3] = m2[::3, None]  # margin exactly gap - log(t - 1)
    ln = math.log(t - 1)
    peak = m2 + rng.uniform(2 * TAU, ln, n)
    peak[::3] = m2[::3] + ln + TAU
    peak[::3] += rng.integers(-3, 4, len(peak[::3])) * np.spacing(peak[::3])
    return rng.permuted(np.column_stack([peak, others]), axis=1)


def _spy_log_sum(monkeypatch):
    """Record each z that ``lopsided._log_sum`` is handed, as the kernel
    leaves it."""
    from amoebas import lopsided

    seen = []
    log_sum = lopsided._log_sum

    def spy(z):
        out = log_sum(z)
        seen.append(z)
        return out

    monkeypatch.setattr(lopsided, "_log_sum", spy)
    return seen


def test_all_band_and_mixed_batches_match_full_margins(monkeypatch):
    # a chunk whose every row lies in the band and a mixed one are both
    # tested where they lie, and both give the full margins' verdicts and
    # peaks bit for bit
    seen = _spy_log_sum(monkeypatch)
    rng = np.random.default_rng(21)
    for t in (3, 30, 257):
        table = unit_table(t)
        for n in (2, 17, 300):
            band = _band_batch(rng, n, t)
            decided = rng.uniform(-5.0, 5.0, (n, t))
            decided[::2, 0] = decided[::2].max(axis=1) + 50.0  # accepted by the gap
            decided[1::4, 0] = np.nan  # a non-finite row joins the band
            mixed = rng.permutation(np.concatenate([band, decided]))
            for values in (band, mixed):
                work = values.copy()
                with np.errstate(invalid="ignore"):  # the NaN rows
                    peaks, margin = peak_margins(values)
                    seen.clear()
                    ok, idx, lopsided_ = table._certify(work)
                assert np.array_equal(idx, peaks)
                assert np.array_equal(lopsided_, margin > TAU)
                assert np.array_equal(ok, margin > TAU)
                (z,) = seen
                assert np.shares_memory(z, work) and z.shape == work.shape


@functools.lru_cache(maxsize=None)
def cubic_table(level):
    return TermTable(quick_cyclic_resultant(parse(CUBIC, 2), level), level)


def _lone_rows(rng, n, t):
    """n rows of t values whose v - m2 spans [-spread, 0], spread up to
    3,000, so that many of their exps underflow to 0 or to subnormals.

    m2 lies in [-600, 600], so that 40 ulps of the peak reach past the
    bound B of ``oracles.sorted_margins`` on the larger rows.  The kinds
    cycle: the sorted margin planted within 40 ulps of TAU, twice; a gap
    anywhere in the band; a gap the bracket accepts; one it rejects; and
    a planted row with inf, -inf or NaN entries, or with every value but
    one at -inf.
    """
    ln = math.log(t - 1)
    rows = []
    for i in range(n):
        m2 = rng.uniform(-600.0, 600.0)
        spread = rng.choice([5.0, 50.0, 710.0, 760.0, 3000.0])
        others = m2 - rng.uniform(0.0, spread, t - 1)
        others[0], others[1] = m2, m2 - spread
        kind = i % 6
        if kind in (0, 1, 5):
            # the ascending sequential sum sorted_margins takes
            s = np.cumsum(np.sort(np.exp(others - m2)))[-1]
            peak = (m2 + math.log(s)) + TAU
            peak += int(rng.integers(-40, 41)) * np.spacing(peak)
        elif kind == 2:
            peak = m2 + rng.uniform(2 * TAU, ln)
        elif kind == 3:
            peak = m2 + ln + 1.0
        else:
            peak = m2 + rng.uniform(0.0, TAU)
        row = np.append(peak, others)
        if kind == 5:
            if i % 4 == 1:
                row[1:] = -math.inf
            else:
                row[rng.integers(0, t, 1 + i % 3)] = rng.choice([math.inf, -math.inf, math.nan])
        rows.append(rng.permutation(row))
    return np.array(rows)


def test_lone_band_rows_match_full_margins_bit_for_bit(monkeypatch):
    # a lone row decides its band from _log_sum of its 1-D row in Python
    # floats; every verdict and peak equals the full margins' and a
    # batch's, on _certify's batch of one and on a fresh 1-D row as
    # _lone_values builds it, even where the exps underflow or fall to
    # subnormals and where the margin lies within B of TAU
    from amoebas import lopsided

    table = cubic_table(5)
    t = len(table)
    floor = np.exp(lopsided._EXP_FLOOR)
    seen = _spy_log_sum(monkeypatch)
    rows = _lone_rows(np.random.default_rng(24), 1200, t)
    with np.errstate(invalid="ignore"):  # inf - inf in the planted rows
        peaks, margin = peak_margins(rows)
        _, _, bound = sorted_margins(rows)
        batch = table._certify(rows.copy())
    ln = math.log(t - 1)
    counts = dict.fromkeys(["band", "nonfinite", "near", "underflow", "subnormal"], 0)
    for k, (row, j, full) in enumerate(zip(rows, peaks, margin)):
        seen.clear()
        with np.errstate(invalid="ignore"):
            ok, idx, lopsided_ = table._certify(row[None, :].copy())
            direct = table._lone_verdict(np.array(row.tolist()), TAU)
        assert idx[0] == j and lopsided_[0] == (full > TAU)
        assert ok[0] == (lopsided_[0] and table._has_order[j])
        assert direct == (lopsided_[0], j)
        assert [c[k] for c in batch] == [ok[0], j, lopsided_[0]]
        # the rows that take the exp, from the bracket
        peak = float(row[j])
        m2 = float(np.delete(row, j).max())
        gap = peak - m2
        band = not (math.isfinite(gap) and (gap <= TAU or peak - (m2 + (ln + 1e-6)) > TAU))
        assert len(seen) == 2 * band
        if band and math.isfinite(gap):
            # both calls take the 1-D row, and leave no exp below the floor
            assert all(z.ndim == 1 and (z >= floor).all() for z in seen)
            z = np.delete(row, j) - m2
            counts["band"] += 1
            counts["underflow"] += int((z < -745.2).sum())
            counts["subnormal"] += int(((z > -745.1) & (z < -708.4)).sum())
            counts["near"] += abs(full - TAU) <= bound[k]
        counts["nonfinite"] += band and not math.isfinite(gap)
    # every case the clamp's proof covers is reached
    assert all(counts.values()), counts


def test_margins_lie_within_the_bound_of_the_sorted_sum():
    # the reference sums unclamped, sorted ascending and one by one;
    # every route's margin lies within B of it, and every route's verdict
    # is the reference's wherever that lies more than B from TAU
    rng = np.random.default_rng(27)
    batches = [(cubic_table(5), _lone_rows(rng, 600, len(cubic_table(5))))]
    batches += [(unit_table(t), _band_batch(rng, 300, t)) for t in (3, 30, 257)]
    near = 0
    for table, rows in batches:
        with np.errstate(invalid="ignore"):  # inf - inf in the planted rows
            want_idx, want, bound = sorted_margins(rows)
            idx, margin = peak_margins(rows)
            alone = np.concatenate([peak_margins(row[None, :])[1] for row in rows])
            verdicts = [table._certify(rows.copy())[2]]
            verdicts.append([table._certify(row[None, :].copy())[2][0] for row in rows])
            verdicts.append([table._lone_verdict(np.array(row.tolist()), TAU)[0] for row in rows])
        assert np.array_equal(idx, want_idx)
        finite = np.isfinite(bound)
        for got in (margin, alone):
            assert (np.abs(got - want)[finite] <= bound[finite]).all()
            assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
        far = ~(np.abs(want - TAU) <= bound)
        for got in verdicts:
            assert np.array_equal(np.asarray(got)[far], (want > TAU)[far])
        near += int((~far & finite).sum())
    assert near  # rows within B of TAU are reached


def test_row_sums_and_scalar_logs_are_route_independent_on_simd_lengths():
    # a verdict is the same on every route because numpy sums each row of
    # a C-contiguous (N, T) chunk, and of every sub-chunk, as it sums that
    # row alone, and takes the log of a float64 scalar as its vector loop
    # does; both on rows of every vectorised length
    rng = np.random.default_rng(11)
    for t in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1023, 1585, 4099):
        chunk = np.exp(np.maximum(-rng.exponential(rng.choice([1.0, 50.0, 800.0]), (37, t)), -700.0))
        chunk[:, rng.integers(0, t)] = 1.0
        alone = [row.copy().sum() for row in chunk]
        cuts = np.unique(np.concatenate([[0, 1, 2, 36, 37], rng.integers(0, 38, 6)]))
        for a, b in zip(cuts, cuts[1:]):
            assert np.array_equal(chunk[a:b].copy().sum(axis=-1), alone[a:b])
        assert np.array_equal(chunk.sum(axis=-1), alone)
        sums = chunk.sum(axis=-1)
        logs = np.log(sums)
        assert [np.log(s) for s in sums] == logs.tolist()
        ones = 1.0 + rng.exponential(rng.choice([1e-15, 1e-6, 1.0, 1e6]), t)
        logs = np.log(ones)
        assert [np.log(x) for x in ones] == logs.tolist()


def test_lone_route_takes_numpys_log():
    # rows [peak, m2 = 0, z] whose sum S = 1 + e^z has math.log(S) !=
    # np.log(S), with the peak on the first float whose margin exceeds
    # TAU and on the float below it: the lone route must decide each as
    # a batch does, which a lone route taking math.log would not
    table = unit_table(3)
    z = np.random.default_rng(13).uniform(-36.0, 0.0, 20000)
    rows = np.column_stack([np.full_like(z, -math.inf), np.zeros_like(z), z])
    sums = np.exp(np.maximum(rows, -700.0)).sum(axis=-1)
    split = [k for k, s in enumerate(sums.tolist()) if math.log(s) != np.log(s)]
    assert len(split) > 20
    planted = []
    for s in sums[split]:
        log_s = float(np.log(s))
        peak = log_s + TAU
        while not peak - (0.0 + log_s) > TAU:
            peak = math.nextafter(peak, math.inf)
        while math.nextafter(peak, -math.inf) - (0.0 + log_s) > TAU:
            peak = math.nextafter(peak, -math.inf)
        planted += [peak, math.nextafter(peak, -math.inf)]
    rows = np.repeat(rows[split], 2, axis=0)
    rows[:, 0] = planted
    _, margin = peak_margins(rows)
    _, _, batch = table._certify(rows.copy())
    assert np.array_equal(batch, margin > TAU)
    assert batch[::2].all() and not batch[1::2].any()
    for row, want in zip(rows, batch.tolist()):
        assert table._lone_verdict(row.copy(), TAU) == (want, 0)
        assert table._certify(row[None, :].copy())[2][0] == want


def test_log_sum_leaves_no_exp_below_the_floor():
    # each exp argument is raised to _EXP_FLOOR before the exp, so no
    # summand underflows, on a lone row and on a chunk, on rows reaching
    # -3,000 and -inf
    from amoebas.lopsided import _EXP_FLOOR, _log_sum

    floor = np.exp(_EXP_FLOOR)
    rng = np.random.default_rng(17)
    for t in (2, 9, 1585):
        chunk = -rng.uniform(0.0, 3000.0, (20, t))
        chunk[:, 0] = -math.inf
        chunk[:, 1] = -3000.0
        chunk[::2, 2 % t] = 0.0
        alone = [row.copy() for row in chunk]
        want = np.log(np.exp(np.maximum(chunk, _EXP_FLOOR)).sum(axis=-1))
        assert np.array_equal(_log_sum(chunk), want)
        assert (chunk >= floor).all()
        for row, log_s in zip(alone, want.tolist()):
            assert _log_sum(row) == log_s
            assert (row >= floor).all()


def test_mask_peaks_second_value_equals_row_max():
    # m2 is read at the argmax of what is left; on rows with ties, -inf,
    # NaN and infinities it equals the row max, NaN for NaN
    from amoebas.lopsided import _mask_peaks

    inf, nan = math.inf, math.nan
    values = np.array([
        [1.0, 3.0, 3.0, 2.0],
        [3.0, 3.0, 3.0, 3.0],
        [-inf, -inf, -inf, -inf],
        [-inf, 5.0, -inf, -inf],
        [2.0, nan, 1.0, 0.0],
        [nan, 4.0, nan, 1.0],
        [nan, nan, nan, nan],
        [inf, inf, 0.0, -inf],
        [-0.0, 0.0, -1.0, -2.0],
        [7.0, -inf, nan, 7.0],
    ])
    rng = np.random.default_rng(3)
    values = np.concatenate([values, rng.integers(-2, 3, (200, 4)).astype(float)])
    idx, peak, rest, m2 = _mask_peaks(values.copy())
    want = rest.max(axis=1)
    assert np.array_equal(m2, want, equal_nan=True)
    assert np.array_equal(np.signbit(m2), np.signbit(want))
    assert np.array_equal(idx, values.argmax(axis=1))


def test_float_values_add_logb_in_place_bit_for_bit(cubic):
    # the in-place sum equals logb + product, the same matmul's bits
    rng = np.random.default_rng(5)
    for level in (0, 2, 4):
        table = TermTable(quick_cyclic_resultant(cubic, level), level)
        for n in (2, 3, 64, 1000):
            wmat = rng.uniform(-3.0, 1.1, (n, 2))
            want = table.logb + wmat @ table._fmat.T
            assert np.array_equal(table.float_values(wmat), want)
            # the batched classify reads the same values
            ok, idx, lopsided_ = table.float_classify(wmat)
            peaks, margin = peak_margins(want)
            assert np.array_equal(idx, peaks) and np.array_equal(lopsided_, margin > TAU)


def test_bracket_numpy_primitives_hold_on_simd_lengths():
    # the bracket proof needs exp(0) == 1, exp(x <= 0) <= 1 and
    # log(x >= 1) >= 0 from the vectorised loops, in place as well, and
    # the raster tiles a log that keeps the order of its inputs.  The
    # band's clamp needs exp(_EXP_FLOOR) normal, exp no larger below the
    # floor, and the clamp's shift over a table of cycres.MAX_TERMS terms
    # far below the 2^-53 that _margin_error and the sorted reference's
    # bound keep spare
    from amoebas.cycres import MAX_TERMS
    from amoebas.lopsided import _EXP_FLOOR

    floor = np.exp(_EXP_FLOOR)
    assert np.finfo(float).tiny < floor < 1e-300
    assert MAX_TERMS * floor < 2.0 ** -53 * 1e-280
    rng = np.random.default_rng(7)
    tiny = np.nextafter(0.0, -1.0)
    for n in (1, 7, 64, 1023, 4099):
        zeros = np.zeros(n)
        assert (np.exp(zeros) == 1.0).all()
        np.exp(zeros, out=zeros)
        assert (zeros == 1.0).all()
        neg = -rng.exponential(rng.choice([1e-12, 1e-6, 1.0, 50.0, 800.0]), n)
        neg[::3] = tiny
        neg[1::5] = -0.0
        assert (np.exp(neg) <= 1.0).all()
        np.exp(neg, out=neg)
        assert (neg <= 1.0).all()
        ones = 1.0 + rng.exponential(rng.choice([1e-15, 1e-6, 1.0, 1e6]), n)
        ones[::4] = 1.0
        ones[1::6] = np.nextafter(1.0, 2.0)
        assert (np.log(ones) >= 0.0).all()
        low = _EXP_FLOOR - rng.exponential(rng.choice([1e-12, 1.0, 45.0, 800.0]), n)
        low[::7] = _EXP_FLOOR
        assert (np.exp(low) <= floor).all()
        assert (np.exp(np.maximum(low, _EXP_FLOOR)) == floor).all()
        # rasters certify whole tiles only along a nondecreasing log axis
        spread = np.exp(rng.uniform(-700, 700, n))
        axis = np.sort(np.concatenate([spread, np.nextafter(spread, math.inf)]))[:n]
        assert (np.diff(np.log(axis)) >= 0).all()


def test_lone_row_second_value_reads_at_argmax_on_simd_lengths():
    # a lone row reads m2 as v[v.argmax()], which must equal v.max() on
    # rows of every vectorised length, NaN, +-inf and all -inf rows
    # included, as _mask_peaks' test checks for batches
    inf, nan = math.inf, math.nan
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1023, 1585, 4099):
        rows = [np.full(n, -inf), np.full(n, nan), np.full(n, inf)]
        for planted in ([nan], [inf], [-inf], [inf, nan], [-inf, nan], [inf, -inf]):
            for _ in range(4):
                v = rng.integers(-3, 4, n).astype(float)
                v[rng.integers(0, n, 1 + n // 8)] = rng.choice(planted, 1 + n // 8)
                rows.append(v)
        for v in rows:
            assert np.array_equal(v[v.argmax()], v.max(), equal_nan=True), (n, v)


def by_hand(table, rows, entry):
    """logb[j] + entry(exact <exponents[j], row>) for every row and term j."""
    terms = list(zip(table.exponents, table.logb))
    return np.array(
        [[b + entry(sum(a * x for a, x in zip(e, row))) for e, b in terms] for row in rows]
    )


def fraction_values(table, rows, den):
    return by_hand(table, rows, lambda dot: float(Fraction(dot, den)))


def int_values(table, rows, den):
    """The exact route: float(integer) / float(den)."""
    return by_hand(table, rows, lambda dot: float(dot) / float(den))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# exponents up to 7 in magnitude, row bound 10, so the float route
# needs |row entries| below 2**53 / 10
FALLBACK_POLY = "z1^7*z2^-3 - 2*z1^-2*z2^5 + 3*z2 + 1"


@pytest.mark.parametrize(
    "rows",
    [
        [(10**19, 3), (-5, 10**20)],  # overflows int64
        [(2**61, -5), (3, 2**60 + 1)],  # fits int64, products past 2**53
        [(-(2**63), 1), (0, -(2**63))],  # |int64 min| wraps to itself in int64
    ],
)
def test_dots_exact_fallback(rows):
    table = TermTable(parse(FALLBACK_POLY, 2))
    # a power of two, so float(integer) / float(den) rounds once, as
    # float(Fraction) does
    den = 4
    want = fraction_values(table, rows, den)
    try:
        as_array = np.array(rows, dtype=np.int64)
    except OverflowError:
        as_array = np.array(rows, dtype=object)
    for form in (rows, as_array, np.array(rows, dtype=object)):
        assert np.array_equal(bits(table.values(form, den)), bits(want))
    # each row alone, a batch of one, in every form
    for i, row in enumerate(rows):
        for form in ([row], as_array[i : i + 1], np.array([row], dtype=object)):
            assert np.array_equal(bits(table.values(form, den)), bits(want[i : i + 1]))


def test_huge_exponent_sums_take_the_exact_route():
    # each exponent fits int64 but their magnitudes sum to 2**63, which
    # an int64 row bound would wrap to a negative number
    big = 2**62
    table = TermTable(parse(f"z1^{big}*z2^{big} + 1", 2))
    rows = [(1, 1), (-1, 0)]
    got = table.values(rows, 1)
    assert np.array_equal(bits(got), bits(fraction_values(table, rows, 1)))
    assert np.array_equal(got, [[2.0**63, 0.0], [-(2.0**62), 0.0]])
    for i, row in enumerate(rows):
        assert np.array_equal(bits(table.values([row], 1)), bits(got[i : i + 1]))
    cert = table.certificate((1, 1))
    assert cert.lopsided and cert.dominant == (big, big)
    # an exponent past the float range leaves only the exact route
    beyond = TermTable(parse(f"z1^{10**400} + 1", 1))
    assert np.array_equal(beyond.values([(0,)], 1), [[0.0, 0.0]])
    # a constant's row bound is 0, so only the row's own size keeps an
    # entry past the float range off the float route
    constant = TermTable(parse("4", 1))
    assert np.array_equal(constant.values([(10**400,)], 1), [[math.log(4)]])


def test_lone_values_equal_the_batched_rows_bit_for_bit():
    # the level-5 cubic (1,585 terms) at the query workload's kind of
    # row: numerators in [-2*997, 2*997) over the prime 997.  A lone row
    # takes _lone_values' gemv, a batch the matmul; both are exact sums
    # of integers below 2**53, so each row's bits are the batch's
    table, den = cubic_table(5), 997
    rng = np.random.default_rng(20)
    nums = rng.integers(-2 * den, 2 * den, size=(2000, 2))
    nums[nums % den == 0] += 1
    batch = bits(table.values(nums, den))
    assert int(np.abs(nums).max()) < table._lone_limit
    for row, want in zip(nums.tolist(), batch):
        assert np.array_equal(bits(table._lone_values(row, den)), want)


# row bound 6,361 and largest entry 1,416,003,655,831: the row bound
# times the entry is 2**53 - 1 = 6,361 * 69,431 * 20,394,401, and so is
# the first term's inner product with (entry, -entry)
EDGE_POLY = "z1^6000*z2^-361 + 2*z1^-17*z2^40 + 3"
EDGE_ENTRY = 69431 * 20394401


@pytest.mark.parametrize(
    "text, rows, float_route",
    [
        (EDGE_POLY, [(EDGE_ENTRY, -EDGE_ENTRY), (-EDGE_ENTRY, 5)], True),
        # row bound 8 times 2**50 is 2**53
        ("z1^5*z2^-3 - 2*z1^-1*z2^2 + 3", [(2**50, -(2**50)), (-(2**50) + 1, 7)], False),
    ],
)
def test_float_route_ends_at_2_53(text, rows, float_route):
    table = TermTable(parse(text, 2))
    den = 8
    want = bits(fraction_values(table, rows, den))
    assert np.array_equal(bits(table.values(rows, den)), want)
    for i, row in enumerate(rows):
        assert np.array_equal(bits(table.values([row], den)), want[i : i + 1])
    # no partial sum exceeds the bound, so at 2**53 both routes give the
    # same bits; a NaN exponent matrix shows which one ran, for the batch
    # and for each row as a batch of one.  The first row sets the batch's
    # bound; the second alone stays below 2**53 in both cases
    table._fmat = np.full_like(table._fmat, math.nan)
    assert np.isnan(table.values(rows, den)).all() == float_route
    if not float_route:
        assert np.array_equal(bits(table.values(rows, den)), want)
    for i, (row, route) in enumerate(zip(rows, [float_route, True])):
        assert np.isnan(table.values([row], den)).all() == route
        if not route:
            assert np.array_equal(bits(table.values([row], den)), want[i : i + 1])


def test_past_the_bound_the_float_route_would_round():
    # 2**54 + 1 is not a float64, so a float matmul would take the first
    # term's inner product to 0; the exact one is 1
    table = TermTable(parse("z1*z2^-1 + 1", 2))
    assert float(2**54 + 1) - float(2**54) == 0.0
    assert np.array_equal(table.values([(2**54 + 1, 2**54)], 1), [[1.0, 0.0]])


@given(
    polys(2, max_terms=6, lo=-40, hi=40),
    st.lists(
        st.tuples(st.integers(-(2**45), 2**45), st.integers(-(2**45), 2**45)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([1, 3, 7, 10**6, 2**40 + 1]),
)
@settings(max_examples=300)
def test_float_route_matches_the_exact_route(p, rows, den):
    # row bound at most 80, so every row is under the float route's bound
    table = TermTable(p)
    want = bits(int_values(table, rows, den))
    for form in (rows, np.array(rows, dtype=np.int64)):
        assert np.array_equal(bits(table.values(form, den)), want)
    # one row at a time: numpy multiplies a single row by another BLAS routine
    single = np.concatenate([table.values([row], den) for row in rows])
    assert np.array_equal(bits(single), want)


class Half(Fraction):
    """A Fraction subclass, taken as it is."""


def test_point_numerators():
    nums, den = point_numerators((Fraction(1, 2), Fraction(3, 4)), 2)
    assert (nums, den) == ((2, 3), 4)
    nums, den = point_numerators((5, -2), 2)
    assert (nums, den) == ((5, -2), 1)
    # one denominator keeps the numerators as they are
    assert point_numerators((Fraction(-5, 997), Fraction(3, 997)), 2) == ((-5, 3), 997)
    # mixed and negative inputs take the lcm of the distinct denominators
    got = point_numerators((Fraction(-1, 6), 2, Fraction(3, 4), Fraction(-7, 6)), 4)
    assert got == ((-2, 24, 9, -14), 12)
    assert point_numerators((Half(1, 2), "-1/3", "5"), 3) == ((3, -2, 30), 6)
    assert point_numerators((Fraction(2**70, 3**40), -(2**80)), 2) == (
        (2**70, -(2**80) * 3**40),
        3**40,
    )
    assert point_numerators((), 0) == ((), 1)
    # every output is a plain int, and every numerator over den gives back its coordinate
    point = (Half(7, 10), "1/4", -3, Fraction(-9, 25))
    nums, den = point_numerators(point, 4)
    assert all(type(x) is int for x in (*nums, den))
    assert [Fraction(n, den) for n in nums] == [Fraction(x) for x in point]
    for bad, nvars in (((1,), 2), ((1, 2, 3), 2), ((), 1)):
        with pytest.raises(ValueError, match=f"point has {len(bad)} coordinates, expected {nvars}"):
            point_numerators(bad, nvars)


def test_zero_poly_has_no_table():
    from amoebas.poly import LaurentPoly

    with pytest.raises(ValueError):
        TermTable(LaurentPoly(2))


def test_float_values_track_exact_values(cubic):
    table = TermTable(cubic)
    rows = [(3, -2), (7, 5), (-1, 0), (0, 0)]
    den = 4
    exact = table.values(rows, den)
    wmat = np.array(rows, dtype=np.float64) / den
    loose = table.float_values(wmat)
    assert np.allclose(exact, loose, atol=1e-9)
    assert loose.shape == exact.shape


def test_choose_level_frozen_values():
    assert choose_level(2, 3, Fraction(1, 2)) == 7
    assert choose_level(1, 1, 0.1) == 8


def test_choose_level_monotone_in_eps():
    levels = [choose_level(2, 3, eps) for eps in (1.0, 0.5, 0.1, 0.01)]
    assert levels == sorted(levels)
    assert all(1 <= k <= LEVEL_CAP for k in levels)


def test_choose_level_validation():
    with pytest.raises(ValueError):
        choose_level(0, 3, 0.5)
    with pytest.raises(ValueError):
        choose_level(2, 0, 0.5)
    with pytest.raises(ValueError):
        choose_level(2, 3, 0)
    with pytest.raises(ValueError):
        choose_level(2, 3, 1e-12)  # would need a level past the cap


def test_tau_is_a_hair_above_zero():
    assert 0 < TAU < 1e-5
