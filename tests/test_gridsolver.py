"""Grid escalation: spec validation, record semantics, serializers."""

import io
import json
import math
from fractions import Fraction

import pytest

from amoebas.gridsolver import (
    GridSpec,
    MembershipRecord,
    approximate_amoeba,
    complement_consistency_violations,
    epsilon_for_grid,
    make_grid,
    records_to_csv,
    records_to_jsonl,
)
from amoebas.cycres import quick_cyclic_resultant
from amoebas.lopsided import CertificateError, is_lopsided, order_from_certificate, thread_count
from amoebas.poly import LaurentPoly, parse
from oracles import CUBIC_B2, LINE


class TestGridSpec:
    def test_from_box(self):
        spec = GridSpec.from_box(-2, 2, Fraction(1, 10), 2)
        assert spec.lo == (Fraction(-2), Fraction(-2))
        assert spec.hi == (Fraction(2), Fraction(2))
        assert spec.counts == (41, 41)
        assert spec.npoints == 1681

    def test_axis_values_are_exact(self):
        spec = GridSpec((Fraction(0),), (Fraction(1),), Fraction(1, 2))
        assert spec.axis_values(0) == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GridSpec((Fraction(0),), (Fraction(0),), Fraction(1))
        with pytest.raises(ValueError):
            GridSpec((Fraction(1),), (Fraction(0),), Fraction(1))
        with pytest.raises(ValueError):
            GridSpec((Fraction(0),), (Fraction(1),), Fraction(0))
        with pytest.raises(ValueError):
            GridSpec((Fraction(0),), (Fraction(1),), Fraction(3, 10))
        with pytest.raises(ValueError):
            GridSpec((Fraction(0), Fraction(0)), (Fraction(1),), Fraction(1))
        with pytest.raises(ValueError):
            GridSpec((), (), Fraction(1))


def test_make_grid_row_major():
    spec = GridSpec.from_box(0, 1, 1, 2)
    assert make_grid(spec) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(x, Fraction) for pt in make_grid(spec) for x in pt)


def test_make_grid_point_cap():
    spec = GridSpec.from_box(0, 1, 1, 2)
    with pytest.raises(ValueError):
        make_grid(spec, max_points=3)


def test_epsilon_is_half_cell_diagonal():
    spec = GridSpec.from_box(-2, 2, Fraction(1, 10), 2)
    assert epsilon_for_grid(spec) == pytest.approx(math.sqrt(2) / 20, rel=1e-15)


def test_level_zero_matches_direct_test(cubic):
    spec = GridSpec.from_box(-1, 1, 1, 2)
    records = approximate_amoeba(cubic, spec, kmax=0)
    for rec, pt in zip(records, make_grid(spec)):
        assert rec.point == pt  # row-major order is part of the contract
        cert = is_lopsided(cubic, pt)
        assert rec.in_amoeba == (not cert.lopsided)
        if not rec.in_amoeba:
            assert rec.level == 0
            assert rec.order == cert.dominant


def test_escalated_records_match_scalar_route():
    # each record is the first level whose scalar certificate passes and
    # yields an order, as the escalation defines; b = 2 certifies its
    # central hole from level 2 on
    f = parse(CUBIC_B2, 2)
    spec = GridSpec.from_box(-2, 2, Fraction(1, 5), 2)
    folds = [f] + [quick_cyclic_resultant(f, k) for k in (1, 2)]
    records = approximate_amoeba(f, spec, kmax=2)
    assert any(not rec.in_amoeba and rec.level == 2 for rec in records)
    for rec, pt in zip(records, make_grid(spec)):
        expect = (True, None, None)
        for level, g in enumerate(folds):
            cert = is_lopsided(g, pt, level)
            if not cert.lopsided:
                continue
            try:
                expect = (False, level, order_from_certificate(cert))
            except CertificateError:
                continue
            break
        assert (rec.in_amoeba, rec.level, rec.order) == expect, pt


def test_escalation_only_adds_certificates(cubic):
    spec = GridSpec.from_box(-2, 2, Fraction(1, 2), 2)
    by_level = [approximate_amoeba(cubic, spec, kmax=k) for k in (0, 1, 2)]
    for shallow, deep in zip(by_level, by_level[1:]):
        for a, b in zip(shallow, deep):
            if not a.in_amoeba:
                assert (a.level, a.order) == (b.level, b.order)
            # a certified point never reverts to presumed-amoeba
            assert not (not a.in_amoeba and b.in_amoeba)


def test_thread_count_resolution(monkeypatch):
    assert thread_count(3) == 3
    assert thread_count(0) == 1
    monkeypatch.setenv("AMOEBA_THREADS", "5")
    assert thread_count() == 5
    monkeypatch.setenv("AMOEBA_THREADS", "garbage")
    assert thread_count() == 1
    monkeypatch.delenv("AMOEBA_THREADS")
    assert thread_count() == 1


def test_thread_pool_does_not_change_records(cubic):
    spec = GridSpec.from_box(-2, 2, Fraction(1, 10), 2)
    solo = approximate_amoeba(cubic, spec, kmax=1, threads=1)
    pooled = approximate_amoeba(cubic, spec, kmax=1, threads=4)
    assert solo == pooled


def test_kmax_and_eps_are_exclusive(cubic):
    spec = GridSpec.from_box(-1, 1, 1, 2)
    with pytest.raises(ValueError):
        approximate_amoeba(cubic, spec, kmax=1, eps=0.5)


def test_eps_picks_a_level():
    spec = GridSpec.from_box(-1, 1, 1, 2)
    records = approximate_amoeba(parse(LINE, 2), spec, eps=2.0)
    assert all(rec.in_amoeba or rec.level <= 3 for rec in records)


def test_eps_handles_laurent_exponents():
    # level choice shifts the support into the corner first; the shift is
    # invisible to the log image so nothing else changes
    f = parse("z1*z2^-1 + z1^-1 + 1", 2)
    spec = GridSpec.from_box(-1, 1, 1, 2)
    records = approximate_amoeba(f, spec, eps=2.0)
    assert len(records) == 9


def test_input_validation(cubic):
    spec = GridSpec.from_box(-1, 1, 1, 2)
    with pytest.raises(ValueError):
        approximate_amoeba(LaurentPoly.zero(2), spec, kmax=0)
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


SAMPLE_RECORDS = [
    MembershipRecord((Fraction(1, 2), Fraction(-1)), False, 1, (1, 0)),
    MembershipRecord((Fraction(0), Fraction(0)), True, None, None),
]


def test_csv_golden():
    out = io.StringIO()
    records_to_csv(SAMPLE_RECORDS, out)
    assert out.getvalue() == (
        "w1,w2,bit,level,order1,order2\r\n"
        "1/2,-1,0,1,1,0\r\n"
        "0,0,1,,,\r\n"
    )
    empty = io.StringIO()
    records_to_csv([], empty)
    assert empty.getvalue() == ""


def test_jsonl_golden():
    out = io.StringIO()
    records_to_jsonl(SAMPLE_RECORDS, out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[0]) == {
        "point": ["1/2", "-1"],
        "inAmoeba": False,
        "level": 1,
        "order": [1, 0],
    }
    assert json.loads(lines[1]) == {
        "point": ["0", "0"],
        "inAmoeba": True,
        "level": None,
        "order": None,
    }


def test_consistency_check_reports_pairs(cubic):
    spec = GridSpec.from_box(-2, 2, Fraction(1, 2), 2)
    records = approximate_amoeba(cubic, spec, kmax=2)
    violations = complement_consistency_violations(records, spec)
    assert isinstance(violations, list)
    for a, b, order_a, order_b in violations:
        assert order_a != order_b
        assert sum(abs(x - y) for x, y in zip(a, b)) == spec.step
