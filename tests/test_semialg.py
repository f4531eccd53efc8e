"""Branch-union description of the certified region, and its raster image."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import math
import random
import threading

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebas import cli, lopsided, semialg, zerocount
from amoebas.cycres import quick_cyclic_resultant
from amoebas.gaussian import GaussianRational
from amoebas.lopsided import TAU, TermTable, order_from_certificate, peak_margins, point_numerators
from amoebas.poly import LaurentPoly, parse
from amoebas.semialg import (
    Raster,
    SemiAlgSystem,
    _log_axis,
    _rejects_inside,
    _sample_axis,
    check_raster,
    inside_samples,
    magnitude_string,
    rasterize_levels,
    semialg_description,
)
from conftest import rational_points
from oracles import (
    CUBIC,
    GAUSS_PAIR,
    LINE,
    LINE_K1_CANDIDATES,
    boundary_centers,
    contains,
    contains_log,
    line_unlog_member,
    raster_axis,
)

SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["level", "candidates", "baseTerms"],
    "properties": {
        "level": {"type": "integer", "minimum": 1},
        "candidates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["order", "scaledExponent", "sqMagnitude"],
                "properties": {
                    "order": {"type": "array", "items": {"type": "integer"}},
                    "scaledExponent": {"type": "array", "items": {"type": "integer"}},
                    "sqMagnitude": {"type": "string"},
                },
            },
        },
        "baseTerms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["exponent", "sqMagnitude"],
                "properties": {
                    "exponent": {"type": "array", "items": {"type": "integer"}},
                    "sqMagnitude": {"type": "string"},
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def line_system():
    return semialg_description(parse(LINE, 2), 1)


def test_line_level_one_structure(line_system):
    assert line_system.level == 1
    got = {c.order: (c.scaled_exponent, c.sq_magnitude) for c in line_system.candidates}
    assert got == LINE_K1_CANDIDATES
    # squared magnitudes of the folded product, graded order
    base = json.loads(line_system.to_json())["baseTerms"]
    assert [(tuple(t["exponent"]), Fraction(t["sqMagnitude"])) for t in base] == [
        ((4, 0), Fraction(1)),
        ((2, 2), Fraction(4)),
        ((0, 4), Fraction(1)),
        ((2, 0), Fraction(4)),
        ((0, 2), Fraction(4)),
        ((0, 0), Fraction(1)),
    ]


def test_pretty_golden(line_system):
    assert line_system.pretty() == (
        "level 1 certificate region, coordinates x1..x2 > 0\n"
        "g(x) = x1^4 + 2*x1^2*x2^2 + x2^4 + 2*x1^2 + 2*x2^2 + 1\n"
        "union over candidate orders of the branch where one term outweighs the rest:\n"
        "  order (0, 0): 2 > g(x)\n"
        "  order (0, 1): 2*x2^4 > g(x)\n"
        "  order (1, 0): 2*x1^4 > g(x)"
    )


def test_pretty_prints_a_constant_by_its_magnitude():
    system = semialg_description(parse("z1 + z2 + 3", 2), 1)
    assert system.pretty().splitlines()[1] == (
        "g(x) = x1^4 + 2*x1^2*x2^2 + x2^4 + 18*x1^2 + 18*x2^2 + 81"
    )


def test_description_takes_each_magnitude_once(cubic, monkeypatch):
    g = quick_cyclic_resultant(cubic, 2)
    calls = []
    original = GaussianRational.abs_squared

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(GaussianRational, "abs_squared", counted)
    system = SemiAlgSystem(cubic, 2, g)
    system.to_json()
    system.pretty()
    assert len(calls) == len(g.terms)


def test_json_round_trip(line_system):
    obj = json.loads(line_system.to_json())
    jsonschema.validate(obj, SYSTEM_SCHEMA)
    assert obj["level"] == 1
    assert {tuple(c["order"]) for c in obj["candidates"]} == set(LINE_K1_CANDIDATES)
    assert all(c["sqMagnitude"] == "1" for c in obj["candidates"])


def test_empty_branch_is_kept(cubic):
    system = semialg_description(cubic, 2)
    by_order = {c.order: c for c in system.candidates}
    assert len(by_order) == 10  # lattice points of the exponent hull
    assert by_order[(1, 0)].sq_magnitude == 0  # no term at (16, 0)
    assert by_order[(1, 1)].sq_magnitude == Fraction(969**2)
    assert "empty branch" in system.pretty()
    obj = json.loads(system.to_json())
    jsonschema.validate(obj, SYSTEM_SCHEMA)


def test_candidate_validation(cubic):
    with pytest.raises(ValueError):
        semialg_description(cubic, 0)
    with pytest.raises(ValueError):
        semialg_description(LaurentPoly(2), 1)


def test_magnitude_string():
    assert magnitude_string(Fraction(0)) == "0"
    assert magnitude_string(Fraction(1)) == "1"
    assert magnitude_string(Fraction(4)) == "2"
    assert magnitude_string(Fraction(9, 4)) == "3/2"
    assert magnitude_string(Fraction(2)) == "sqrt(2)"
    assert magnitude_string(Fraction(1, 2)) == "sqrt(1/2)"


_CUBIC_SYSTEM = semialg_description(parse(CUBIC, 2), 1)
_CUBIC_TABLE = TermTable(quick_cyclic_resultant(parse(CUBIC, 2), 1), 1)


@given(rational_points(2, bound=6, max_denominator=8))
@settings(max_examples=200)
def test_certify_matches_raw_certificate(w):
    cert = _CUBIC_TABLE.certificate(w)
    if cert.lopsided:
        assert _CUBIC_SYSTEM.certify_log(w) == order_from_certificate(cert)
    else:
        assert _CUBIC_SYSTEM.certify_log(w) is None
        assert contains_log(_CUBIC_SYSTEM, w)


def test_single_queries_match_one_batched_classify(cubic):
    # certify_log classifies the queries no proven tile answers as a batch
    # of one row, which takes the one-row forms of values and _certify,
    # and answers the rest from tiles; on 2,000 points of the level-5 cubic
    # (1,585 terms) with one prime denominator it must return, point by
    # point, the order one batched classify gives
    system = semialg_description(cubic, 5)
    table, den = system._table, 997
    rng = np.random.default_rng(20)
    nums = rng.integers(-2 * den, 2 * den, size=(2000, 2))
    nums[nums % den == 0] += 1
    ok, idx, lopsided = table.classify(nums, den)
    assert 0 < ok.sum() < len(nums) and not lopsided.all()
    for row, hit, i in zip(nums.tolist(), ok, idx):
        want = table.orders[int(i)] if hit else None
        assert system.certify_log((Fraction(row[0], den), Fraction(row[1], den))) == want
    # a one-row batch gives the same columns whatever form its row takes
    for row, hit, i, lop in zip(nums[:200].tolist(), ok, idx, lopsided):
        for form in ([tuple(row)], np.array([row], dtype=np.int64), np.array([row], dtype=object)):
            got = table.classify(form, den)
            assert [c.dtype for c in got] == [ok.dtype, idx.dtype, lopsided.dtype]
            assert [c.tolist() for c in got] == [[hit], [i], [lop]]


@pytest.mark.parametrize("num", [1, 10**400 + 1])
def test_denominator_beyond_float_range_is_a_value_error(line_system, num):
    # numerator 1 takes the float route, 10^400 + 1 the exact one
    with pytest.raises(ValueError, match="too large for a float"):
        line_system.certify_log((Fraction(num, 10**400), 0))


# (polynomial, variables, level, denominator): each denominator is a
# multiple of the query tile's, so that some points sit on tile cuts
QUERY_TILE_CASES = [
    pytest.param(CUBIC, 2, 5, 8 * 997, id="cubic-5"),
    pytest.param("(2-1i)*z1*z2^-2 - 3/4 + z1^2 + (1+1i)*z2", 2, 3, 8 * 9, id="gauss-laurent-3"),
    pytest.param("z1 + z2 + z3 + z1^-1*z2^-1*z3^-1 + 3", 3, 1, 8 * 5, id="three-var-1"),
]


def _query_numerators(nvars, den, count, seed):
    """Seeded numerators over den in [-2, 2]^nvars: the first quarter of the
    rows on tile cuts in every coordinate, the second in the first one."""
    rng = np.random.default_rng(seed)
    nums = rng.integers(-2 * den, 2 * den + 1, size=(count, nvars))
    cut = den // semialg._QUERY_TILE
    nums[: count // 4] -= nums[: count // 4] % cut
    nums[count // 4 : count // 2, 0] -= nums[count // 4 : count // 2, 0] % cut
    return nums


def _spy(monkeypatch, owner, name):
    """A list that gets the arguments of every call of owner.name."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("text, nvars, level, den", QUERY_TILE_CASES)
def test_tile_answers_match_one_batched_classify(text, nvars, level, den, monkeypatch):
    # each point is queried twice, so that its tile is proven by the second
    # pass at the latest; both passes give, point by point, the order one
    # batched classify gives, and the second answers some from tiles
    system = semialg_description(parse(text, nvars), level)
    table = system._table
    nums = _query_numerators(nvars, den, 1200, level)
    assert (nums < 0).any() and (nums % (den // semialg._QUERY_TILE) == 0).any()
    ok, idx, _ = table.classify(nums, den)
    want = [table.orders[int(i)] if hit else None for hit, i in zip(ok, idx)]
    assert any(want) and not all(want)
    points = [tuple(Fraction(n, den) for n in row) for row in nums.tolist()]
    assert [system.certify_log(w) for w in points] == want
    classified = _spy(monkeypatch, TermTable, "_lone_verdict")
    assert [system.certify_log(w) for w in points] == want
    proven = [peak for peak in system._tiles.values() if peak >= 0]
    assert proven and len(classified) < len(points) - len(proven)


def test_query_tiles_floor_negative_coordinates():
    # the cell is floor(8 w) per coordinate, also below 0 and on a cut
    system = semialg_description(parse(CUBIC, 2), 1)
    cells = {
        (Fraction(-1, 16), Fraction(3, 8)): (-1, 3),
        (Fraction(-3, 8), Fraction(-17, 16)): (-3, -9),
        (Fraction(5), Fraction(-1, 1000)): (40, -1),
        (Fraction(-2), Fraction(1, 9)): (-16, 0),
    }
    for w, cell in cells.items():
        nums, den = point_numerators(w, 2)
        ok, idx, _ = system._table.classify([nums], den)
        want = system._table.orders[idx[0]] if ok[0] else None
        for _ in range(3):
            assert system.certify_log(w) == want
        assert cell in system._tiles
    assert len(system._tiles) == len(cells)


def test_query_tiles_whose_corners_disagree_stay_unproven():
    # near (5, 5) the line 15 w1 = 15 w2 + ln(23/9), where neither term
    # outweighs the other, crosses the cube [5, 5 + 1/8]^2 between its
    # corners: all four are certified, three with z2^15's order and one
    # with z1^15's, and the points near the line are certified by neither
    system = semialg_description(parse("z1^15 + 23/9*z2^15 + 1", 2), 1)
    table = system._table
    corners = [(a, b) for a in (40, 41) for b in (40, 41)]
    peaks, margins = peak_margins(table.values(corners, semialg._QUERY_TILE))
    assert (margins > TAU).all() and [table.orders[i] for i in peaks] == [(0, 15)] * 2 + [(15, 0), (0, 15)]
    nums = [(a, b) for a in range(320, 329) for b in range(320, 329)]
    ok, idx, _ = table.classify(nums, 64)
    want = [table.orders[int(i)] if hit else None for hit, i in zip(ok, idx)]
    assert None in want
    for _ in range(2):
        assert [system.certify_log((Fraction(a, 64), Fraction(b, 64))) for a, b in nums] == want
    assert system._tiles[40, 40] == -1


def test_query_tile_corners_pass_by_twice_the_error_bound(monkeypatch):
    # with delta patched to 1/2 a cell is proven exactly when its corners
    # all pass at TAU + 1 with one peak that carries an order, delta being
    # taken at the tile's largest |corner| coordinate; some cells whose
    # corners pass at TAU with one peak stay unproven, and every verdict
    # is classify's
    system = semialg_description(parse(CUBIC, 2), 2)
    table = system._table
    monkeypatch.setattr(lopsided, "_margin_error", lambda t, wmax: 0.5)
    built = _spy(monkeypatch, semialg, "_corner_peaks")
    den = 16
    axis = range(-2 * den, 2 * den + 1)
    nums = np.array([(a, b) for a in axis for b in axis])
    ok, idx, _ = table.classify(nums, den)
    want = [table.orders[int(i)] if hit else None for hit, i in zip(ok, idx)]
    points = [(Fraction(a, den), Fraction(b, den)) for a, b in nums.tolist()]
    for _ in range(2):
        assert [system.certify_log(w) for w in points] == want
    near = 0
    for cell, peak in system._tiles.items():
        corners = [(a, b) for a in (cell[0], cell[0] + 1) for b in (cell[1], cell[1] + 1)]
        peaks, margins = peak_margins(table.values(corners, semialg._QUERY_TILE))
        one = len(set(peaks.tolist())) == 1 and table.orders[int(peaks[0])] is not None
        assert peak == (int(peaks[0]) if one and (margins > TAU + 1).all() else -1)
        near += one and (margins > TAU).all() and not (margins > TAU + 1).all()
    assert near and sum(peak >= 0 for peak in system._tiles.values())
    assert built and all(wmax == np.abs(corners).max() / 8 for _, _, corners, wmax in built)


def test_queries_past_the_exact_route_are_classified(monkeypatch):
    # a denominator at 2^53 or more, or a row bound times a numerator at
    # 2^53 or more, sends every query to classify and records no cell; at
    # w1 = big - 1 the query is exact but its cell's corner numerators,
    # 8 (big - 1) over 8, are not, so the cell is never proven
    system = semialg_description(parse(CUBIC, 2), 1)
    table = system._table
    big = -(-(2**53) // table._row_bound)
    assert table._row_bound * (big - 1) < 2**53
    classified = _spy(monkeypatch, TermTable, "classify")
    corners = _spy(monkeypatch, semialg, "_corner_peaks")
    past = [(Fraction(1, 3**34), Fraction(0)), (Fraction(big), Fraction(1, 3)), (Fraction(-big, 7), Fraction(0))]
    for w in past:
        nums, den = point_numerators(w, 2)
        ok, idx, _ = table.classify([nums], den)
        want = table.orders[idx[0]] if ok[0] else None
        del classified[:]
        for _ in range(3):
            assert system.certify_log(w) == want
        assert len(classified) == 3
    assert system._tiles == {} and corners == []
    edge = (Fraction(big - 1), Fraction(0))
    for _ in range(3):
        system.certify_log(edge)
    assert system._tiles == {(8 * (big - 1), 0): -1} and corners == []


def test_exact_queries_are_decided_without_classify(monkeypatch):
    # a query whose inner products are exact floats builds its row and
    # decides it directly, calling neither classify nor values; queries
    # off that route still go through classify, once each
    system = semialg_description(parse(CUBIC, 2), 2)
    table = system._table
    classified = _spy(monkeypatch, TermTable, "classify")
    valued = _spy(monkeypatch, TermTable, "values")
    decided = _spy(monkeypatch, TermTable, "_lone_verdict")
    # one query per cell, so that no cell's corners are tested
    exact = [
        (Fraction(a, 8) + Fraction(1, 97), Fraction(b, 8) - Fraction(1, 89))
        for a in range(-9, 9, 3)
        for b in (-5, 2, 7)
    ]
    got = [system.certify_log(w) for w in exact]
    assert (len(classified), len(valued), len(decided)) == (0, 0, len(exact))
    assert len(system._tiles) == len(exact)
    big = -(-(2**53) // table._row_bound)
    past = [(Fraction(1, 3**34), Fraction(0)), (Fraction(big), Fraction(1, 3)), (Fraction(-big, 7), Fraction(0))]
    got += [system.certify_log(w) for w in past]
    assert len(classified) == len(past) and len(decided) == len(exact) + len(past)
    for w, order in zip(exact + past, got):
        nums, den = point_numerators(w, 2)
        ok, idx, _ = table.classify(np.array([nums, nums], dtype=object), den)
        assert order == (table.orders[idx[0]] if ok[0] else None)
    assert any(got) and None in got


@pytest.mark.parametrize(
    "text, nvars, w, cells",
    [
        ("3*z1^2*z2", 2, (Fraction(1, 3), Fraction(-2)), {(2, -16): 0}),
        # row bound 0: a numerator past 2^53 is off the exact route
        ("5", 2, (Fraction(10**400), Fraction(1, 2)), {}),
        ("5", 2, (Fraction(-7, 3), Fraction(1, 2)), {(-19, 4): 0}),
        # exponents past the float range: only w = 0 meets the row bound
        ("z1^" + str(10**400), 1, (Fraction(0),), {}),
    ],
    ids=["monomial", "constant-past-2^53", "constant", "exponent-past-floats"],
)
def test_one_term_tables_certify_every_query(text, nvars, w, cells, monkeypatch):
    # a one-term table is lopsided everywhere at its only term, on the
    # direct route and off it alike
    f = parse(text, nvars)
    system = semialg_description(f, 1)
    assert len(system._table) == 1
    classified = _spy(monkeypatch, TermTable, "classify")
    (exponent,) = f.terms
    for _ in range(3):
        assert system.certify_log(w) == exponent
    assert system._tiles == cells
    assert len(classified) == (0 if cells else 3)


def _edge_pairs(table, edge, count=4):
    """Pairs of exact points 2^-34 apart on either side of gap = edge.

    The points lie on rows of [-2, 2]^2, their first coordinates on the
    lattice Z / 2^34.  The gap p - m2 is 0 where the peak changes.  Each
    change between neighbours of the lattice (Z / 4)^2 is bisected to a
    point r whose gap is below the edge, and the nearest point x of that
    lattice on either side whose gap is above it gives the pair that
    bisecting [r, x] leaves.  At most count pairs.
    """
    den = 2**34

    def values(a, y):
        nums, d = point_numerators((Fraction(a, den), y), 2)
        return table.values([nums], d)[0]

    def above(a, y):
        v = np.sort(values(a, y))
        return v[-1] - v[-2] > edge

    def peak(a, y):
        return int(values(a, y).argmax())

    def bisect(test, lo, hi, y):
        side = test(lo, y)
        while abs(hi - lo) > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if test(mid, y) == side else (lo, mid)
        return lo, hi

    pairs = []
    axis = [a * den // 4 for a in range(-8, 9)]
    for y in [Fraction(b, 2) for b in range(-4, 5)]:
        for i in range(len(axis) - 1):
            if peak(axis[i], y) == peak(axis[i + 1], y):
                continue
            r = bisect(peak, axis[i], axis[i + 1], y)[0]
            for side in (axis[i::-1], axis[i + 1 :]):
                a = next((a for a in side if above(a, y)), None)
                if a is not None and not above(r, y):
                    pair = [(Fraction(x, den), y) for x in bisect(above, r, a, y)]
                    pairs += [pair] if pair not in pairs else []
                if len(pairs) == count:
                    return pairs
    return pairs


@pytest.mark.parametrize(
    "text, level",
    [(CUBIC, 1), (CUBIC, 5), ("(2-1i)*z1*z2^-2 - 3/4 + z1^2 + (1+1i)*z2", 3)],
    ids=["cubic-1", "cubic-5", "gauss-laurent-3"],
)
def test_direct_route_matches_classify_at_both_bracket_edges(text, level):
    # points 2^-34 apart on either side of the gap's reject edge, TAU, and
    # of its accept edge, log(t - 1) + 1e-6 + TAU, are decided directly on
    # their first visit to a cell, with the verdict of a lone-row classify
    # and of a batched one
    system = semialg_description(parse(text, 2), level)
    table = system._table
    accept = math.log(len(table) - 1) + 1e-6 + TAU
    points = [w for edge in (TAU, accept) for pair in _edge_pairs(table, edge) for w in pair]
    assert len(points) == 16
    rows = [point_numerators(w, 2) for w in points]
    for w, (nums, den) in zip(points, rows):
        system._tiles.clear()
        ok, idx, _ = table.classify([nums], den)
        both = table.classify(np.array([nums, nums], dtype=object), den)
        assert [c.tolist() for c in both] == [[ok[0]] * 2, [idx[0]] * 2, [both[2][0]] * 2]
        assert system.certify_log(w) == (table.orders[idx[0]] if ok[0] else None)
        assert system._tiles


def test_first_visit_builds_no_tile(monkeypatch):
    system = semialg_description(parse(CUBIC, 2), 1)
    classified = _spy(monkeypatch, TermTable, "_lone_verdict")
    corners = _spy(monkeypatch, semialg, "_corner_peaks")
    # z1^3 outweighs the rest on the whole tile [3, 3 + 1/8] x [1/4, 3/8]
    first, second = (Fraction(3), Fraction(1, 4)), (Fraction(49, 16), Fraction(5, 16))
    assert system.certify_log(first) == (3, 0)
    assert (len(classified), len(corners), system._tiles) == (1, 0, {(24, 2): semialg._SEEN})
    assert system.certify_log(second) == (3, 0)
    assert (len(classified), len(corners)) == (1, 1)
    assert system._tiles[24, 2] >= 0
    assert system.certify_log(first) == (3, 0)
    assert (len(classified), len(corners)) == (1, 1)
    # a cell whose first query is not certified is never proven: w1 = w2
    # near 3 is where z1^3 and z2^3 weigh alike
    for w in [(Fraction(3), Fraction(3)), (Fraction(49, 16), Fraction(49, 16))] * 2:
        assert system.certify_log(w) is None
    assert (len(classified), len(corners), system._tiles[24, 24]) == (5, 1, -1)


def test_query_tiles_stay_under_their_cap(monkeypatch):
    monkeypatch.setattr(semialg, "_QUERY_TILES_CAP", 5)
    system = semialg_description(parse(CUBIC, 2), 2)
    table = system._table
    nums = _query_numerators(2, 24, 300, 7)
    ok, idx, _ = table.classify(nums, 24)
    want = [table.orders[int(i)] if hit else None for hit, i in zip(ok, idx)]
    sizes = []
    for row, expect in zip(nums.tolist() * 2, want * 2):
        assert system.certify_log((Fraction(row[0], 24), Fraction(row[1], 24))) == expect
        sizes.append(len(system._tiles))
    assert max(sizes) == 5 and min(sizes[10:]) < 5


def test_threads_sharing_a_system_get_the_classify_verdicts(monkeypatch):
    # eight threads query one system's points in their own orders while
    # the cap clears the cells often; every verdict is still classify's
    monkeypatch.setattr(semialg, "_QUERY_TILES_CAP", 16)
    system = semialg_description(parse(CUBIC, 2), 2)
    table = system._table
    nums = _query_numerators(2, 40, 400, 11)
    ok, idx, _ = table.classify(nums, 40)
    want = {tuple(row): table.orders[int(i)] if hit else None for row, hit, i in zip(nums.tolist(), ok, idx)}
    wrong = []

    def run(seed):
        rows = list(want) * 3
        random.Random(seed).shuffle(rows)
        for row in rows:
            if system.certify_log((Fraction(row[0], 40), Fraction(row[1], 40))) != want[row]:
                wrong.append(row)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(system._tiles) <= 16


def test_raster_of_exponents_beyond_float_range_is_a_value_error():
    n = 10**400
    f = parse(f"z1^{n} + z1^{n}*z2 + z1^{n + 1}", 2)
    with pytest.raises(ValueError, match="too large for a float"):
        semialg_description(f, 1).rasterize(Fraction(1, 20), 3, 4)


def test_contains_takes_magnitudes(line_system):
    assert contains(line_system, (1.0, 1.0))
    assert not contains(line_system, (0.05, 2.9))
    with pytest.raises(ValueError):
        contains(line_system, (0.0, 1.0))
    with pytest.raises(ValueError):
        contains(line_system, (-1.0, 1.0))


def test_raster_line_tracks_exact_region(line_system):
    raster = line_system.rasterize(Fraction(1, 20), 3, 128)
    assert isinstance(raster, Raster)
    assert raster.mask.shape == (128, 128)
    assert (raster.lo, raster.hi) == (Fraction(1, 20), Fraction(3))
    # every point of the true curve's magnitude image must survive:
    # the approximation never undercovers
    axis = raster_axis(raster.lo, raster.hi, 128)
    for i, x1 in enumerate(axis):
        for j, x2 in enumerate(axis):
            if line_unlog_member(x1, x2) and not raster.mask[i, j]:
                pytest.fail(f"undercovered true point ({x1}, {x2})")
    # and it is not the whole box
    assert not raster.mask.all()
    assert boundary_centers(raster)  # the edge shows up at this resolution


def _fits_a_float(x):
    try:
        return 0 < float(x) < math.inf
    except OverflowError:
        return False


# positive rationals from far below the smallest subnormal to far above
# the largest float
_MAGNITUDES = st.builds(
    lambda a, b, e: Fraction(a, b) * Fraction(2) ** e,
    st.integers(1, 10**20),
    st.integers(1, 10**20),
    st.integers(-1140, 1090),
)


@given(_MAGNITUDES, _MAGNITUDES, st.integers(2, 300))
@settings(max_examples=200)
def test_raster_samples_are_the_exact_fractions_rounded_once(lo, gap, res):
    hi = lo + gap
    assume(_fits_a_float(lo) and _fits_a_float(hi))
    want = np.array([float(x) for x in raster_axis(lo, hi, res)])
    assert _sample_axis(lo, hi, res).tobytes() == want.tobytes()


def test_raster_thread_determinism(line_system, monkeypatch, pool_chunks):
    # 128^2 samples of 6 terms are more than one classify chunk
    monkeypatch.setenv("AMOEBA_THREADS", "1")
    solo = line_system.rasterize(Fraction(1, 20), 3, 128)
    monkeypatch.setenv("AMOEBA_THREADS", "4")
    pool_chunks.clear()
    pooled = line_system.rasterize(Fraction(1, 20), 3, 128)
    assert pool_chunks and max(pool_chunks) > 1
    assert (solo.mask == pooled.mask).all()
    assert boundary_centers(solo) == boundary_centers(pooled)


def certified_tiles(system, w):
    """Mask of the raster samples the shared tile pass certifies, at log axis w."""
    table = system._table
    return lopsided._certified_tiles(table, table.float_values, w, 2, float(np.abs(w).max())) >= 0


def per_row_mask(table, raster):
    # one float_classify call per raster row, as rasters were once built
    axis = raster_axis(raster.lo, raster.hi, len(raster.mask))
    w = np.log(np.array([float(x) for x in axis]))
    return np.array(
        [~table.float_classify(np.column_stack([np.full(len(w), a), w]))[0] for a in w]
    )


# (polynomial, level, box, res, AMOEBA_THREADS, tiles): tiles is "all"
# when the corners certify every tile, and "straddle" when tile (3, 0)
# has four certified corners with two peaks around uncertified samples
RASTER_CASES = [
    # the workload's box, where w crosses 0; res 130 is not 1 more than a
    # multiple of TILE, so the last tiles are one step wide
    *[pytest.param(GAUSS_PAIR, k, ("1/20", "3"), 130, "1", None, id=str(k)) for k in (1, 2, 3, 4)],
    pytest.param(GAUSS_PAIR, 3, ("1/20", "3"), 130, "4", None, id="threads-4"),
    pytest.param(GAUSS_PAIR, 2, ("1/20", "3"), 33, "1", "straddle", id="tentacle"),
    pytest.param(LINE, 2, ("1/2", "2"), 64, "1", None, id="around-1"),
    pytest.param(CUBIC, 2, ("1/100", "1/50"), 64, "1", "all", id="all-tiles"),
    *[pytest.param(GAUSS_PAIR, 2, ("1/20", "3"), res, "1", None, id=f"res-{res}") for res in (2, 3, 9)],
    pytest.param("z1*z2", 1, ("1/2", "2"), 20, "1", "all", id="monomial"),
]


@pytest.mark.parametrize("text, level, box, res, threads, tiles", RASTER_CASES)
def test_raster_batch_matches_per_row_reference(
    text, level, box, res, threads, tiles, monkeypatch, pool_chunks
):
    monkeypatch.setenv("AMOEBA_THREADS", threads)
    f = parse(text, 2)
    lo, hi = map(Fraction, box)
    table = TermTable(quick_cyclic_resultant(f, level), level)
    system = semialg_description(f, level)
    raster = system.rasterize(lo, hi, res)
    assert raster.mask.shape == (res, res)
    assert np.array_equal(raster.mask, per_row_mask(table, raster))
    if res == 130:
        assert pool_chunks and max(pool_chunks) > 1
        # GAUSS_PAIR's region is not symmetric under swapping x1 and x2,
        # so a transposed mask fails
        assert not np.array_equal(raster.mask, raster.mask.T)
    if tiles == "all":
        assert certified_tiles(system, np.log(_sample_axis(lo, hi, res))).all()
    if tiles == "straddle":
        axis = raster_axis(lo, hi, res)
        corners = [(axis[i], axis[j]) for i in (24, 32) for j in (0, 8)]
        ok, idx, _ = table.float_classify(np.log(np.array(corners, dtype=float)))
        assert ok.all() and len(set(idx)) > 1
        assert raster.mask[24:, :9].any()


def test_raster_masks_hold_across_thread_counts(monkeypatch, pool_chunks):
    # the workload's picture at a smaller res: inside proof, tiles and
    # pointwise chunks, each chunk's band tested in place or gathered
    f = parse(CUBIC, 2)
    systems = [semialg_description(f, k) for k in (1, 2, 3, 4)]
    masks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("AMOEBA_THREADS", threads)
        masks[threads] = [r.mask for r in rasterize_levels(systems, Fraction(1, 20), 3, 128)]
    assert max(pool_chunks) > 1
    for system, one, two in zip(systems, masks["1"], masks["2"]):
        assert np.array_equal(one, two)
        table = TermTable(quick_cyclic_resultant(f, system.level), system.level)
        assert np.array_equal(one, per_row_mask(table, Raster(Fraction(1, 20), Fraction(3), one)))


def test_raster_tiles_leave_under_two_fifths_of_the_samples(monkeypatch):
    # the raster workload's last level: the corners and the samples
    # tested one by one come to 28.5% of the samples
    rows = {"float_values": 0, "float_classify": 0}

    def counted(name):
        original = getattr(TermTable, name)

        def wrapper(self, wmat):
            rows[name] += len(wmat)
            return original(self, wmat)

        monkeypatch.setattr(TermTable, name, wrapper)

    counted("float_values")
    counted("float_classify")
    semialg_description(parse(CUBIC, 2), 4).rasterize(Fraction(1, 20), 3, 256)
    assert rows["float_values"] == rows["float_classify"] + 33**2
    assert rows["float_values"] < 0.4 * 256**2


def _perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_PERFBENCH_INPUTS = _perfbench_inputs()


def _raster_inputs(seed):
    """(polynomial text, lo, hi) of the benchmark's raster workload at seed."""
    given = _PERFBENCH_INPUTS.make_inputs("raster", seed)["raster"]
    argv = list(given.argv)
    box = argv[argv.index("--box") + 1:][:2] if "--box" in argv else ("1/20", "3")
    return given.poly, *map(Fraction, box)


# a factor z2^N leaves the amoeba as it is but makes the row bound, and
# with it delta, so large that the guard fails at every level; the
# coefficients 10^300 put the amoeba among magnitudes near 1e300 or 1e-300
_E300 = 10**300
NO_GUARD_NEAR_1E300 = f"z1*z2^1000000 + z2^1000001 + {_E300}*z2^1000000"
NO_GUARD_NEAR_1EM300 = f"{_E300}*z1*z2^1000000 + {_E300}*z2^1000001 + z2^1000000"

# (polynomial, box, res, levels, proofs): every level of each is rastered
# with the proofs and compared with a float_classify of every sample.
# proofs is "skipped" when samples are proven inside and the guard holds
# at every level, "tested" when it fails at every level, and "none" when
# no sample is proven
INSIDE_CASES = [
    *[
        pytest.param(*_raster_inputs(seed), 256, (1, 2, 3, 4), "skipped", id=f"workload-seed-{seed}")
        for seed in range(4)
    ],
    pytest.param(
        "(2-1i)*z1*z2^-2 - 3/4 + z1^2 + z1*z2", Fraction(1, 20), Fraction(3), 128, (1, 2, 3, 4), "skipped",
        id="gauss",
    ),
    pytest.param(LINE, Fraction(1, 20), Fraction(3), 128, (1, 2, 3, 4), "skipped", id="line"),
    # both spans are 17, so no variable is counted
    pytest.param("z1^17*z2^17 - 3*z1*z2^2 + 1", Fraction(1, 20), Fraction(3), 64, (1, 2, 3, 4), "none", id="uncounted"),
    pytest.param(CUBIC, Fraction(1, 3), Fraction(7, 3), 97, (1, 2, 3, 4), "skipped", id="odd-box-97"),
    pytest.param(CUBIC, Fraction("0.07"), Fraction("3.07"), 131, (1, 2, 3, 4), "skipped", id="odd-box-131"),
    pytest.param(NO_GUARD_NEAR_1E300, Fraction("1e299"), Fraction("3e300"), 64, (1, 2, 3, 4), "tested", id="near-1e300"),
    # its level-4 fold takes seconds
    pytest.param(NO_GUARD_NEAR_1EM300, Fraction("1e-301"), Fraction("3e-300"), 64, (1, 2, 3), "tested", id="near-1e-300"),
]


def _count_float_classify_rows(monkeypatch):
    """The row count of every ``float_classify`` call, in call order."""
    rows = []
    original = TermTable.float_classify

    def counted(self, wmat):
        rows.append(len(wmat))
        return original(self, wmat)

    monkeypatch.setattr(TermTable, "float_classify", counted)
    return rows


@pytest.mark.parametrize("text, lo, hi, res, levels, proofs", INSIDE_CASES)
def test_raster_skips_only_samples_the_pointwise_test_rejects(text, lo, hi, res, levels, proofs, monkeypatch):
    # the mask equals the verdicts of every sample classified in one
    # batch, no sample proven inside is certified at any level, and a
    # level skips exactly the proven samples outside certified tiles when
    # the guard holds, and none when it does not
    f = parse(text, 2)
    inside = inside_samples(f, lo, hi, res)
    assert inside.any() == (proofs != "none")
    w = _log_axis(lo, hi, res)
    samples = np.column_stack([np.repeat(w, res), np.tile(w, res)])
    rows = _count_float_classify_rows(monkeypatch)
    systems, masks = [], []
    for level in levels:
        system = semialg_description(f, level)
        certified = system._table.float_classify(samples)[0].reshape(res, res)
        assert not (certified & inside).any()
        guard = _rejects_inside(system._table, w)
        if proofs != "none":
            assert guard == (proofs == "skipped")
        rows.clear()
        raster = system.rasterize(lo, hi, res, inside)
        assert np.array_equal(raster.mask, ~certified)
        todo = ~certified_tiles(system, w) & ~(inside if guard else False)
        # a lone sample is classified as a batch of two
        assert rows == ([max(2, todo.sum())] if todo.any() else [])
        systems.append(system)
        masks.append(raster.mask)
    # the levels drawn together take the same proof; a raster not handed
    # it tests every sample outside certified tiles, with the same mask
    together = rasterize_levels(systems, lo, hi, res)
    assert all(np.array_equal(r.mask, m) for r, m in zip(together, masks))
    rows.clear()
    assert np.array_equal(system.rasterize(lo, hi, res).mask, raster.mask)
    untiled = (~certified_tiles(system, w)).sum()
    assert rows == ([max(2, untiled)] if untiled else [])


def test_a_failing_guard_tests_the_proven_samples(monkeypatch):
    # with delta at TAU every sample outside certified tiles is
    # classified, the proven ones too, and the mask does not change
    f = parse(CUBIC, 2)
    lo, hi, res = Fraction(1, 20), Fraction(3), 64
    system = semialg_description(f, 2)
    w = _log_axis(lo, hi, res)
    inside = inside_samples(f, lo, hi, res)
    assert _rejects_inside(system._table, w)
    proved = system.rasterize(lo, hi, res, inside)
    monkeypatch.setattr(lopsided, "_margin_error", lambda table, wmax: TAU)
    assert not _rejects_inside(system._table, w)
    untiled = ~certified_tiles(system, w)
    assert (inside & untiled).any()
    rows = _count_float_classify_rows(monkeypatch)
    assert np.array_equal(system.rasterize(lo, hi, res, inside).mask, proved.mask)
    assert rows == [untiled.sum()]


def _count_proofs(monkeypatch):
    """The polynomial of every ``lattice_inside`` call semialg makes."""
    proofs = []
    lattice_inside = zerocount.lattice_inside
    monkeypatch.setattr(semialg, "lattice_inside", lambda f, w: proofs.append(f) or lattice_inside(f, w))
    return proofs


def test_raster_workload_proves_once_and_tests_under_33000_samples(monkeypatch, tmp_path):
    # the benchmark's raster command at seed 0: one proof for its four
    # levels, and 32,220 samples tested one by one (81,628 without it)
    proofs = _count_proofs(monkeypatch)
    rows = _count_float_classify_rows(monkeypatch)
    argv = ["semialg", "-f", CUBIC, "-k", "1,2,3,4", "--format", "svg", "--res", "256"]
    assert cli.main([*argv, "-o", str(tmp_path / "raster.svg")]) == 0
    assert len(proofs) == 1
    assert sum(rows) <= 33_000


@pytest.mark.parametrize("fmt", ["svg", "ppm"])
def test_one_level_picture_is_drawn_without_the_proof(fmt, monkeypatch, tmp_path):
    # at level 1 the proof costs more than it saves, so every sample
    # outside certified tiles is tested
    proofs = _count_proofs(monkeypatch)
    rows = _count_float_classify_rows(monkeypatch)
    argv = ["semialg", "-f", CUBIC, "-k", "1", "--format", fmt, "--res", "256"]
    assert cli.main([*argv, "-o", str(tmp_path / f"raster.{fmt}")]) == 0
    assert proofs == []
    w = _log_axis(Fraction(1, 20), Fraction(3), 256)
    untiled = ~certified_tiles(semialg_description(parse(CUBIC, 2), 1), w)
    assert sum(rows) == untiled.sum()


@pytest.mark.parametrize(
    "inside",
    [
        np.zeros(16, dtype=bool),
        np.zeros((16, 15), dtype=bool),
        np.zeros((16, 16), dtype=np.int8),
        [[False] * 16] * 16,
    ],
    ids=["row", "short", "int8", "list"],
)
def test_inside_must_be_a_res_by_res_bool_mask(line_system, inside):
    with pytest.raises(ValueError, match="bool mask"):
        line_system.rasterize(Fraction(1, 20), 3, 16, inside)


def test_levels_drawn_together_describe_one_polynomial(line_system, cubic):
    with pytest.raises(ValueError, match="one polynomial"):
        rasterize_levels([line_system, semialg_description(cubic, 1)], Fraction(1, 20), 3, 16)


def test_rasters_compare_by_value(line_system):
    # a Raster has no value equality of its own; its fields compare
    first = line_system.rasterize(Fraction(1, 20), 3, 8)
    second = line_system.rasterize(Fraction(1, 20), 3, 8)
    assert first.mask is not second.mask
    assert (first.lo, first.hi) == (second.lo, second.hi) == (Fraction(1, 20), Fraction(3))
    assert np.array_equal(first.mask, second.mask)
    assert first != second
    assert not np.array_equal(first.mask, line_system.rasterize(Fraction(1, 20), 3, 9).mask)


def corner_disagreement_centers(raster):
    # the cells whose four corner samples disagree, by direct comparison
    mask = raster.mask
    axis = raster_axis(raster.lo, raster.hi, len(mask))
    same = mask[:-1, :-1]
    agree = (same == mask[1:, :-1]) & (same == mask[:-1, 1:]) & (same == mask[1:, 1:])
    return tuple(
        ((axis[i] + axis[i + 1]) / 2, (axis[j] + axis[j + 1]) / 2) for i, j in np.argwhere(~agree)
    )


def test_raster_boundary_is_corner_disagreement(line_system):
    rasters = [
        line_system.rasterize(Fraction(1, 20), 3, 128),
        line_system.rasterize(Fraction(1, 10), 3, 9),
        semialg_description(parse(GAUSS_PAIR, 2), 2).rasterize(Fraction(1, 20), 3, 48),
    ]
    for raster in rasters:
        centers = boundary_centers(raster)
        assert centers == corner_disagreement_centers(raster)
        assert all(isinstance(c, Fraction) for center in centers for c in center)


def test_raster_monomial_is_all_certified():
    system = semialg_description(parse("3*z1*z2", 2), 1)
    raster = system.rasterize(Fraction(1, 2), 2, 16)
    assert not raster.mask.any()
    assert boundary_centers(raster) == ()


def test_raster_validation(line_system):
    with pytest.raises(ValueError):
        semialg_description(parse("z1 + 1", 1), 1).rasterize(1, 2, 8)
    with pytest.raises(ValueError):
        line_system.rasterize(Fraction(1, 2), 2, 1)
    with pytest.raises(ValueError):
        line_system.rasterize(0, 2, 8)
    with pytest.raises(ValueError):
        line_system.rasterize(2, 1, 8)
    # res^2 samples against the grid's point limit, checked without
    # allocating anything
    check_raster(2, 1, 2, 3162)  # 9,998,244 samples
    with pytest.raises(ValueError, match="raster has 10004569 samples, limit is 10000000"):
        check_raster(2, 1, 2, 3163)
    # bounds whose float overflows, or rounds to 0 and has log -inf
    with pytest.raises(ValueError, match="float"):
        line_system.rasterize(1, Fraction("1e400"), 8)
    with pytest.raises(ValueError, match="float"):
        line_system.rasterize(Fraction("1e-400"), 1, 8)


def test_gaussian_coefficients_quadratic_magnitudes():
    system = semialg_description(parse(GAUSS_PAIR, 2), 1)
    base = json.loads(system.to_json())["baseTerms"]
    sqs = {tuple(t["exponent"]): Fraction(t["sqMagnitude"]) for t in base}
    # |1+i|^2 = 2 folded four times gives |(1+i)^4|^2 = 16, exactly
    assert sqs[(8, 4)] == 16
    assert sqs[(0, 0)] == Fraction(1, 256)
    assert magnitude_string(sqs[(0, 4)]) == "27/2"
