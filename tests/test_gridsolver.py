"""Grid escalation: spec validation, record semantics, serializers."""

import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas import cycres, gridsolver, lopsided
from amoebas.gridsolver import (
    GridSpec,
    MembershipRecord,
    _grid_rows,
    approximate_amoeba,
    records_to_csv,
    records_to_jsonl,
)
from amoebas.cycres import quick_cyclic_resultant
from amoebas.lopsided import (
    CertificateError,
    TermTable,
    is_lopsided,
    order_from_certificate,
    thread_count,
)
from amoebas.poly import LaurentPoly, parse
from amoebas.render import (
    COLOR_AMOEBA,
    COLOR_CERT_HIGH,
    COLOR_CERT_LOW,
    COLOR_CERT_MID,
    records_to_pixels,
)
from conftest import polys
from oracles import (
    CUBIC,
    CUBIC_B2,
    CUBIC_BM4,
    GAUSS_PAIR,
    LINE,
    THREE_VAR,
    complement_consistency_violations,
    epsilon_for_grid,
    make_grid,
    order_map_violations,
    plain_escalation,
    pointwise_escalation,
)


class TestGridSpec:
    def test_square_box(self):
        spec = GridSpec(-2, 2, Fraction(1, 10), 2)
        assert (spec.lo, spec.hi, spec.step) == (Fraction(-2), Fraction(2), Fraction(1, 10))
        assert all(isinstance(x, Fraction) for x in (spec.lo, spec.hi, spec.step))
        assert spec.count == 41
        assert spec.npoints == 1681
        assert GridSpec(-2, 2, Fraction(1, 10), 3).npoints == 41**3

    def test_axis_values_are_exact(self):
        spec = GridSpec(0, 1, Fraction(1, 2), 1)
        assert spec.axis_values() == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 1, 1)
        with pytest.raises(ValueError):
            GridSpec(1, 0, 1, 1)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1)
        with pytest.raises(ValueError):
            GridSpec(0, 1, Fraction(3, 10), 1)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 1, 0)


def test_make_grid_row_major():
    spec = GridSpec(0, 1, 1, 2)
    assert make_grid(spec) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(x, Fraction) for pt in make_grid(spec) for x in pt)


def test_make_grid_point_cap():
    spec = GridSpec(0, 1, 1, 2)
    with pytest.raises(ValueError):
        make_grid(spec, max_points=3)


def test_grid_point_limit_is_checked_before_the_rows_are_built(cubic, monkeypatch):
    def no_rows(spec, den):
        raise AssertionError("built the rows of a grid over the point limit")

    monkeypatch.setattr(gridsolver, "_grid_rows", no_rows)
    spec = GridSpec(0, 1, Fraction(1, 3162), 2)  # 3,163^2 = 10,004,569 points
    with pytest.raises(ValueError, match="grid has 10004569 points, limit is 10000000"):
        approximate_amoeba(cubic, spec, kmax=0)


def test_epsilon_is_half_cell_diagonal():
    spec = GridSpec(-2, 2, Fraction(1, 10), 2)
    assert epsilon_for_grid(spec) == pytest.approx(math.sqrt(2) / 20, rel=1e-15)


def test_level_zero_matches_direct_test(cubic):
    spec = GridSpec(-1, 1, 1, 2)
    records = approximate_amoeba(cubic, spec, kmax=0)
    for rec, pt in zip(records, make_grid(spec)):
        assert rec.point == pt  # row-major order is part of the contract
        cert = is_lopsided(cubic, pt)
        assert rec.in_amoeba == (not cert.lopsided)
        if not rec.in_amoeba:
            assert rec.level == 0
            assert rec.order == cert.dominant


def _scalar_verdict(folds, pt):
    # the first level whose scalar certificate passes and yields an
    # order, as the escalation defines
    for level, g in enumerate(folds):
        cert = is_lopsided(g, pt, level)
        if not cert.lopsided:
            continue
        try:
            return (False, level, order_from_certificate(cert))
        except CertificateError:
            continue
    return (True, None, None)


def _assert_scalar_route(f, spec, kmax):
    folds = [f] + [quick_cyclic_resultant(f, k) for k in range(1, kmax + 1)]
    records = list(approximate_amoeba(f, spec, kmax=kmax))
    assert len(records) == spec.npoints
    for rec, pt in zip(records, make_grid(spec)):
        assert rec.point == pt
        assert (rec.in_amoeba, rec.level, rec.order) == _scalar_verdict(folds, pt), pt
    return records


def test_escalated_records_match_scalar_route():
    # b = 2 certifies its central hole from level 2 on
    spec = GridSpec(-2, 2, Fraction(1, 5), 2)
    records = _assert_scalar_route(parse(CUBIC_B2, 2), spec, 2)
    assert any(not rec.in_amoeba and rec.level == 2 for rec in records)


def test_numerators_past_int64_match_scalar_route():
    # the rows are Python ints and every inner product takes the exact
    # route, so the exponent differences w1 - w2 survive at 10**19
    spec = GridSpec(10**19, 10**19 + 2, 1, 2)
    assert _grid_rows(spec, 1).dtype == object
    records = _assert_scalar_route(parse("z1*z2^-1 + z1^-1*z2 + 2", 2), spec, 1)
    assert {rec.in_amoeba for rec in records} == {True, False}


def test_orders_past_int64_match_scalar_route():
    # level-0 orders are the exponents themselves, kept as Python ints
    big = 2**70
    spec = GridSpec(-1, 1, Fraction(1, 2), 2)
    records = _assert_scalar_route(parse(f"z1^{big} + z2 + 1", 2), spec, 0)
    assert (big, 0) in {rec.order for rec in records}


# grids on which the inside proofs retire rows after level 0
_SQUARE = GridSpec(-2, 2, Fraction(1, 10), 2)
PROOF_GRIDS = [
    (CUBIC, _SQUARE, 3),
    (CUBIC_B2, _SQUARE, 3),
    (CUBIC_BM4, _SQUARE, 3),
    (GAUSS_PAIR, _SQUARE, 3),
    (LINE, _SQUARE, 3),
    (THREE_VAR, GridSpec(-1, 1, Fraction(1, 4), 3), 2),
]


@pytest.mark.parametrize("text, spec, kmax", PROOF_GRIDS)
def test_inside_proofs_keep_the_plain_verdicts(text, spec, kmax, monkeypatch):
    f = parse(text, spec.nvars)
    retired = []
    prove = gridsolver.lattice_inside

    def spy(f, w):
        mask = prove(f, w)
        retired.append(int(np.count_nonzero(mask)))
        return mask

    monkeypatch.setattr(gridsolver, "lattice_inside", spy)
    records = approximate_amoeba(f, spec, kmax=kmax)
    assert len(retired) == 1 and retired[0] > 0
    assert list(records) == list(plain_escalation(f, spec, kmax))


def _classified_rows(monkeypatch):
    """(level, set of row tuples) of every ``TermTable.classify`` call."""
    calls = []
    classify = TermTable.classify

    def spy(self, rows, den):
        calls.append((self.level, set(map(tuple, np.asarray(rows).tolist()))))
        return classify(self, rows, den)

    monkeypatch.setattr(TermTable, "classify", spy)
    return calls


def test_proven_rows_skip_level_zero_and_every_level_that_passes_the_guard(monkeypatch):
    # the proof runs before level 0's pointwise test; with the margin
    # bound patched past TAU at levels 2 and up, the proven rows skip
    # levels 0 and 1 and are tested from level 2 on, and the verdicts
    # stay the plain escalation's
    f = parse(CUBIC, 2)
    spec, kmax = _SQUARE, 3
    den = spec.step.denominator
    rows = _grid_rows(spec, den)
    tiled = _level_zero_tiles(f, spec)
    bound = lopsided._margin_error
    monkeypatch.setattr(
        lopsided, "_margin_error", lambda table, wmax: 1.0 if table.level >= 2 else bound(table, wmax)
    )
    proven = []
    prove = gridsolver.lattice_inside
    monkeypatch.setattr(gridsolver, "lattice_inside", lambda f, w: proven.append(prove(f, w)) or proven[0])
    calls = _classified_rows(monkeypatch)
    records = approximate_amoeba(f, spec, kmax=kmax)
    retired = set(map(tuple, rows[proven[0].ravel() & (tiled < 0)].tolist()))
    assert len(retired) > 100
    assert [level for level, _ in calls] == [0, 1, 2, 3]
    assert all(not retired & tested for _, tested in calls[:2])
    assert all(retired <= tested for _, tested in calls[2:])
    assert list(records) == list(plain_escalation(f, spec, kmax))


def test_a_grid_proven_inside_folds_no_level(monkeypatch):
    # every point of this box lies in the amoeba of z1 + z2 + 1 and is
    # proven there, so no point is left pending after level 0 and no
    # deeper level is folded
    f = parse(LINE, 2)
    spec = GridSpec(Fraction(-1, 4), Fraction(1, 4), Fraction(1, 16), 2)
    plain = plain_escalation(f, spec, 4)
    folds = []
    fold = gridsolver.quick_cyclic_resultant
    monkeypatch.setattr(gridsolver, "quick_cyclic_resultant", lambda *args, **kw: folds.append(args) or fold(*args, **kw))
    records = approximate_amoeba(f, spec, kmax=4)
    assert not folds and (records.level == -1).all()
    assert list(records) == list(plain)


@pytest.mark.parametrize(
    "text, spec, kmax", [(CUBIC_B2, _SQUARE, 4), (THREE_VAR, GridSpec(-1, 1, Fraction(1, 4), 3), 2)]
)
def test_levels_fold_on_from_the_level_below(text, spec, kmax, monkeypatch):
    # level k is n more Graeffe steps on level k - 1: kmax steps per
    # variable in all, not 1 + 2 + ... + kmax
    f = parse(text, spec.nvars)
    steps = []
    step = cycres._graeffe_step
    monkeypatch.setattr(cycres, "_graeffe_step", lambda *args: steps.append(args[3]) or step(*args))
    records = approximate_amoeba(f, spec, kmax=kmax)
    assert len(records.orders) == kmax + 1
    assert sorted(steps) == sorted(list(range(spec.nvars)) * kmax)
    assert list(records) == list(plain_escalation(f, spec, kmax))


@pytest.mark.parametrize("text, spec, kmax", PROOF_GRIDS)
def test_certified_orders_never_decrease_along_an_axis(text, spec, kmax):
    records = approximate_amoeba(parse(text, spec.nvars), spec, kmax=kmax)
    assert (records.level >= 0).any()
    assert not order_map_violations(records).any()


def test_order_map_audit_catches_swapped_orders():
    # swapping the level-0 orders of z1^3 and z2^3 labels the z1^3
    # component (0, 3) and the z2^3 one (3, 0), so ord_2 falls from 3 to 0
    # along w2 where the two meet
    f = parse(CUBIC_B2, 2)
    spec = GridSpec(-2, 2, Fraction(1, 10), 2)
    records = approximate_amoeba(f, spec, kmax=3)
    orders = list(records.orders[0])
    i, j = orders.index((3, 0)), orders.index((0, 3))
    orders[i], orders[j] = orders[j], orders[i]
    levels = (tuple(orders), *records.orders[1:])
    swapped = gridsolver.GridVerdicts(spec, records.level, records.peak, levels)
    assert not order_map_violations(records).any()
    assert order_map_violations(swapped).any()


@given(polys(2, max_terms=5, lo=0, hi=4, coeffs=st.integers(-3, 3).filter(bool)))
@settings(max_examples=100)
def test_random_grids_with_inside_proofs_match_scalar_route(f):
    _assert_scalar_route(f, GridSpec(-2, 2, Fraction(1, 2), 2), 2)


def test_scalar_route_catches_a_wrong_inside_proof(monkeypatch):
    # a proof that also retires one row that level 2 certifies
    f = parse(CUBIC_B2, 2)
    spec = GridSpec(-2, 2, Fraction(1, 5), 2)
    _assert_scalar_route(f, spec, 2)
    plain = plain_escalation(f, spec, 2)
    target = int(np.flatnonzero(plain.level == 2)[0])
    prove = gridsolver.lattice_inside

    def wrong(f, w):
        mask = prove(f, w).copy()
        mask.flat[target] = True
        return mask

    monkeypatch.setattr(gridsolver, "lattice_inside", wrong)
    assert list(approximate_amoeba(f, spec, kmax=2)) != list(plain)
    with pytest.raises(AssertionError):
        _assert_scalar_route(f, spec, 2)


def test_escalation_only_adds_certificates(cubic):
    spec = GridSpec(-2, 2, Fraction(1, 2), 2)
    by_level = [approximate_amoeba(cubic, spec, kmax=k) for k in (0, 1, 2)]
    for shallow, deep in zip(by_level, by_level[1:]):
        for a, b in zip(shallow, deep):
            if not a.in_amoeba:
                assert (a.level, a.order) == (b.level, b.order)
            # a certified point never reverts to presumed-amoeba
            assert not (not a.in_amoeba and b.in_amoeba)


def test_thread_count_resolution(monkeypatch):
    monkeypatch.setenv("AMOEBA_THREADS", "5")
    assert thread_count() == 5
    monkeypatch.setenv("AMOEBA_THREADS", "garbage")
    assert thread_count() == 1
    monkeypatch.setenv("AMOEBA_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.delenv("AMOEBA_THREADS")
    assert thread_count() == 1


def test_thread_pool_does_not_change_records(cubic, monkeypatch, pool_chunks):
    # the 24,286 of 401^2 points that level 0's certified tiles leave,
    # of 4 terms, are more than one classify chunk, so 4 workers share
    # them; at kmax 0 no inside proof retires any of them first
    spec = GridSpec(-2, 2, Fraction(1, 100), 2)
    monkeypatch.setenv("AMOEBA_THREADS", "1")
    solo = approximate_amoeba(cubic, spec, kmax=0)
    monkeypatch.setenv("AMOEBA_THREADS", "4")
    pool_chunks.clear()
    pooled = approximate_amoeba(cubic, spec, kmax=0)
    assert pool_chunks and max(pool_chunks) > 1
    assert list(solo) == list(pooled)


def _seeded_spec(seed, nvars):
    """A seeded grid of 57 to 64 points per axis (1 variable: 401 to 408,
    3 variables: 17 to 24), lo in [-3, -1], step 1/den, 2 to 5 wide."""
    rng = np.random.default_rng(seed)
    count = {1: 401, 2: 57, 3: 17}[nvars] + int(rng.integers(0, 8))
    den = int(rng.integers((count - 1) // 5 + 1, (count - 1) // 2 + 1))
    lo = Fraction(-int(rng.integers(den, 3 * den + 1)), den)
    return GridSpec(lo, lo + Fraction(count - 1, den), Fraction(1, den), nvars)


def _level_zero_tiles(f, spec):
    den = math.lcm(spec.lo.denominator, spec.step.denominator)
    return gridsolver._tile_peaks(TermTable(f, 0), spec, den)


# (polynomial, variables, seed, kmax)
TILE_GRIDS = [
    *[("z1^2 - 3*z1 + 1", 1, seed, 3) for seed in (0, 1)],
    *[(text, 2, seed, 2) for text in (CUBIC, CUBIC_B2, GAUSS_PAIR) for seed in (0, 1, 2)],
    ("(2-1i)*z1*z2^-2 - 3/4 + z1^2 + (1+1i)*z2", 2, 3, 2),
    *[(text, 3, seed, 1) for text in (THREE_VAR, "z1 + z2 + z3 + z1^-1*z2^-1*z3^-1 + 3") for seed in (0, 1)],
]


@pytest.mark.parametrize("text, nvars, seed, kmax", TILE_GRIDS)
def test_certified_tiles_keep_the_pointwise_verdicts(text, nvars, seed, kmax):
    # every point a certified tile holds is one level 0 certifies point by
    # point with the same peak, and the whole escalation, inside proofs
    # included, gives the pointwise one's level, peak and order everywhere
    f = parse(text, nvars)
    spec = _seeded_spec(seed, nvars)
    tiled = _level_zero_tiles(f, spec)
    records = approximate_amoeba(f, spec, kmax=kmax)
    want = pointwise_escalation(f, spec, kmax)
    hit = tiled >= 0
    # tiles certify some points and leave others to the pointwise test
    assert hit.any() and (want.level[~hit] == 0).any() and (want.level != 0).any()
    assert (want.level[hit] == 0).all() and np.array_equal(want.peak[hit], tiled[hit])
    assert np.array_equal(records.level, want.level)
    assert np.array_equal(records.peak, want.peak)
    assert records.orders == want.orders
    assert list(records) == list(want)


@pytest.mark.parametrize(
    "text, spec, kmax",
    [
        # a denominator past 2^53 with small numerators, where every point
        # is lopsided with the constant term
        ("z1 + z2 + 5", GridSpec(Fraction(-8, 3**34), Fraction(8, 3**34), Fraction(1, 3**34), 2), 1),
        # numerators past int64
        ("z1 - 3*z2 + z1*z2^-1", GridSpec(10**19, 10**19 + 2, 1, 2), 1),
        # a row bound of 2^52 times the numerator 2; its fold is over budget
        (f"z1^{2**52} + z2 + 5", GridSpec(-2, 2, Fraction(1, 8), 2), 0),
    ],
    ids=["den-3^34", "1e19", "row-bound-2^52"],
)
def test_grids_past_the_exact_route_certify_no_tile(text, spec, kmax):
    f = parse(text, 2)
    assert (_level_zero_tiles(f, spec) == -1).all()
    records = approximate_amoeba(f, spec, kmax=kmax)
    assert list(records) == list(pointwise_escalation(f, spec, kmax))
    if spec.lo.denominator > 2**53:
        assert (records.level == 0).all()


def test_kmax_and_eps_are_exclusive(cubic):
    spec = GridSpec(-1, 1, 1, 2)
    with pytest.raises(ValueError):
        approximate_amoeba(cubic, spec, kmax=1, eps=0.5)


def test_eps_picks_a_level():
    spec = GridSpec(-1, 1, 1, 2)
    records = approximate_amoeba(parse(LINE, 2), spec, eps=2.0)
    assert all(rec.in_amoeba or rec.level <= 3 for rec in records)


def test_eps_handles_laurent_exponents():
    # level choice shifts the support into the corner first; the shift is
    # invisible to the log image so nothing else changes
    f = parse("z1*z2^-1 + z1^-1 + 1", 2)
    spec = GridSpec(-1, 1, 1, 2)
    records = approximate_amoeba(f, spec, eps=2.0)
    assert len(list(records)) == 9


def test_input_validation(cubic):
    spec = GridSpec(-1, 1, 1, 2)
    with pytest.raises(ValueError):
        approximate_amoeba(LaurentPoly(2), spec, kmax=0)
    with pytest.raises(ValueError):
        approximate_amoeba(parse("z1 + 1", 1), spec, kmax=0)
    with pytest.raises(ValueError):
        approximate_amoeba(cubic, spec, kmax=-1)


def test_record_invariant():
    pt = (Fraction(0), Fraction(0))
    MembershipRecord(pt, True, None, None)
    MembershipRecord(pt, False, 1, (1, 0))
    with pytest.raises(ValueError):
        MembershipRecord(pt, True, 0, None)
    with pytest.raises(ValueError):
        MembershipRecord(pt, False, None, (1, 0))


# a 3x3 grid whose verdicts span levels 0, 1 and 2, three orders and
# presumed amoeba points, and are not symmetric under swapping w1 and w2;
# the expected text is what csv.writer and json.dumps write record by
# record (the reference writers below)
SAMPLE_POLY = "z1 + 3*z2 + z1*z2 + 1"
SAMPLE_SPEC = GridSpec(Fraction(-3, 2), Fraction(1, 2), 1, 2)


@pytest.fixture(scope="module")
def sample_records():
    return approximate_amoeba(parse(SAMPLE_POLY, 2), SAMPLE_SPEC, kmax=2)


def test_csv_golden(sample_records):
    out = io.StringIO()
    records_to_csv(sample_records, out)
    assert out.getvalue() == (
        "w1,w2,bit,level,order1,order2\r\n"
        "-3/2,-3/2,0,0,0,0\r\n"
        "-3/2,-1/2,0,0,0,1\r\n"
        "-3/2,1/2,0,0,0,1\r\n"
        "-1/2,-3/2,1,,,\r\n"
        "-1/2,-1/2,0,1,0,1\r\n"
        "-1/2,1/2,0,0,0,1\r\n"
        "1/2,-3/2,0,2,1,0\r\n"
        "1/2,-1/2,1,,,\r\n"
        "1/2,1/2,0,1,0,1\r\n"
    )


def test_jsonl_golden(sample_records):
    out = io.StringIO()
    records_to_jsonl(sample_records, out)
    assert out.getvalue() == (
        '{"point": ["-3/2", "-3/2"], "inAmoeba": false, "level": 0, "order": [0, 0]}\n'
        '{"point": ["-3/2", "-1/2"], "inAmoeba": false, "level": 0, "order": [0, 1]}\n'
        '{"point": ["-3/2", "1/2"], "inAmoeba": false, "level": 0, "order": [0, 1]}\n'
        '{"point": ["-1/2", "-3/2"], "inAmoeba": true, "level": null, "order": null}\n'
        '{"point": ["-1/2", "-1/2"], "inAmoeba": false, "level": 1, "order": [0, 1]}\n'
        '{"point": ["-1/2", "1/2"], "inAmoeba": false, "level": 0, "order": [0, 1]}\n'
        '{"point": ["1/2", "-3/2"], "inAmoeba": false, "level": 2, "order": [1, 0]}\n'
        '{"point": ["1/2", "-1/2"], "inAmoeba": true, "level": null, "order": null}\n'
        '{"point": ["1/2", "1/2"], "inAmoeba": false, "level": 1, "order": [0, 1]}\n'
    )


def _csv_writer_reference(records):
    # the record-by-record writer the columnar one replaced
    out = io.StringIO()
    records = list(records)
    n = len(records[0].point)
    writer = csv.writer(out)
    writer.writerow([f"w{d+1}" for d in range(n)] + ["bit", "level"] + [f"order{d+1}" for d in range(n)])
    for rec in records:
        row = [str(x) for x in rec.point]
        row.append("1" if rec.in_amoeba else "0")
        row.append("" if rec.level is None else str(rec.level))
        row.extend([""] * n if rec.order is None else [str(v) for v in rec.order])
        writer.writerow(row)
    return out.getvalue()


def _jsonl_reference(records):
    return "".join(
        json.dumps(
            {
                "point": [str(x) for x in rec.point],
                "inAmoeba": rec.in_amoeba,
                "level": rec.level,
                "order": None if rec.order is None else list(rec.order),
            }
        )
        + "\n"
        for rec in records
    )


@pytest.mark.parametrize(
    "text, spec, kmax",
    [
        ("z1^3 - 2*z1 + 1", GridSpec(-3, 3, Fraction(1, 8), 1), 2),
        (CUBIC_B2, GridSpec(-2, 2, Fraction(2, 5), 2), 2),
        ("z1*z2*z3 + z1^2 + z2 + z3 + 1", GridSpec(-1, 1, Fraction(1, 2), 3), 1),
    ],
)
def test_writers_match_record_reference(text, spec, kmax):
    records = approximate_amoeba(parse(text, spec.nvars), spec, kmax=kmax)
    out = io.StringIO()
    records_to_csv(records, out)
    assert out.getvalue() == _csv_writer_reference(records)
    out = io.StringIO()
    records_to_jsonl(records, out)
    assert out.getvalue() == _jsonl_reference(records)


@pytest.mark.parametrize("write_points", [1, 5, 11])
def test_writers_split_long_lines_into_pieces(write_points, monkeypatch):
    # a line of 49 or 11 points written in pieces of 1, 5 or 11, the last
    # piece short or full, gives the same bytes
    monkeypatch.setattr(gridsolver, "_WRITE_POINTS", write_points)
    for text, spec in (("z1^3 - 2*z1 + 1", GridSpec(-3, 3, Fraction(1, 8), 1)), (CUBIC_B2, GridSpec(-2, 2, Fraction(2, 5), 2))):
        records = approximate_amoeba(parse(text, spec.nvars), spec, kmax=2)
        out = io.StringIO()
        records_to_csv(records, out)
        assert out.getvalue() == _csv_writer_reference(records)
        out = io.StringIO()
        records_to_jsonl(records, out)
        assert out.getvalue() == _jsonl_reference(records)


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize(
    "text, spec",
    [
        (CUBIC_B2, GridSpec(-2, 2, Fraction(1, 50), 2)),
        (THREE_VAR, GridSpec(-1, 1, Fraction(1, 20), 3)),
    ],
)
@pytest.mark.parametrize("writer", [records_to_csv, records_to_jsonl])
def test_writers_stream_in_bounded_memory(text, spec, writer):
    # the writers hold one last-axis line of text at a time; what is left
    # is classes()' 8-byte slot per point and a 1-byte mask, 9.1 to 9.5
    # bytes per point here, so one more 8-byte temporary would fail
    records = approximate_amoeba(parse(text, spec.nvars), spec, kmax=1)
    tracemalloc.start()
    try:
        writer(records, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / spec.npoints < 16


def test_verdicts_iterate_row_major(sample_records):
    listed = list(sample_records)
    assert [rec.point for rec in listed] == make_grid(SAMPLE_SPEC)
    columns = zip(sample_records.level.tolist(), sample_records.peak.tolist())
    for rec, (level, peak) in zip(listed, columns, strict=True):
        if level < 0:
            assert (rec.in_amoeba, rec.level, rec.order) == (True, None, None)
        else:
            assert (rec.level, rec.order) == (level, sample_records.orders[level][peak])
    assert list(sample_records) == listed
    again = approximate_amoeba(parse(SAMPLE_POLY, 2), SAMPLE_SPEC, kmax=2)
    assert list(again) == listed
    assert list(approximate_amoeba(parse(SAMPLE_POLY, 2), SAMPLE_SPEC, kmax=1)) != listed


def level_color(record):
    # the per-record color rule the level-column palette lookup replaced
    if record.in_amoeba:
        return COLOR_AMOEBA
    if record.level <= 2:
        return COLOR_CERT_LOW
    if record.level == 3:
        return COLOR_CERT_MID
    return COLOR_CERT_HIGH


def test_pixels_match_level_colors():
    # the per-record loop as the reference; kmax 4 reaches every color of
    # the palette
    # the image is not symmetric under swapping w1 and w2, so a
    # transposed picture fails
    spec = GridSpec(-1, Fraction(3, 2), Fraction(1, 10), 2)
    records = approximate_amoeba(parse("z1^3 + 2*z1*z2 + 2*z2^3 + 1", 2), spec, kmax=4)
    n = spec.count
    want = np.zeros((n, n, 3), dtype=np.uint8)
    for flat, rec in enumerate(records):
        i, j = divmod(flat, n)
        want[n - 1 - j, i] = level_color(rec)
    got = records_to_pixels(records)
    assert got.dtype == np.uint8 and got.shape == (n, n, 3)
    assert not np.array_equal(got, got.transpose(1, 0, 2)[::-1, ::-1])
    assert np.array_equal(got, want)
    assert len({level_color(rec) for rec in records}) == 4


def test_consistency_check_reports_pairs(cubic):
    spec = GridSpec(-2, 2, Fraction(1, 2), 2)
    records = approximate_amoeba(cubic, spec, kmax=2)
    violations = complement_consistency_violations(records, spec)
    assert isinstance(violations, list)
    for a, b, order_a, order_b in violations:
        assert order_a != order_b
        assert sum(abs(x - y) for x, y in zip(a, b)) == spec.step
