"""Bench harness behavior, not performance: stats, fallbacks, formats."""

import csv
import io
import math

import pytest

from amoebas.bench import BenchResult, format_table, run_case, to_csv
from amoebas.poly import LaurentPoly, parse
from oracles import OVER_BUDGET


def test_case_stats_and_factor(cubic):
    r = run_case("cubic", cubic, 2)
    assert r.poly_id == "cubic"
    assert r.level == 2
    assert r.runs == 1
    assert r.term_count == 31
    assert r.degree == 48
    assert r.max_coeff_digits == 3  # largest coefficient is 969
    assert r.quick_seconds > 0
    assert r.baseline_seconds > 0
    assert r.factor > 0
    assert not r.timed_out
    assert r.error is None


def test_multiple_runs_average(cubic):
    r = run_case("cubic", cubic, 1, runs=3)
    assert r.runs == 3
    assert r.term_count == 10
    assert r.degree == 12


def test_quick_only(cubic):
    r = run_case("cubic", cubic, 1, baseline=False)
    assert r.quick_seconds > 0
    assert r.baseline_seconds is None
    assert r.factor is None
    assert not r.timed_out


def test_term_budget_becomes_error_string():
    r = run_case("big", parse(OVER_BUDGET, 2), 1)
    assert r.error is not None and "terms" in r.error
    assert r.quick_seconds is None
    assert r.factor is None
    assert not r.timed_out


@pytest.mark.parametrize("timeout", [0, -1, math.nan])
def test_nonpositive_timeout_is_rejected(cubic, timeout):
    with pytest.raises(ValueError, match="timeout must be positive"):
        run_case("cubic", cubic, 1, timeout=timeout)


def test_zero_poly_becomes_error_string():
    r = run_case("zero", LaurentPoly(2), 1)
    assert r.error is not None
    assert r.quick_seconds is None


def test_baseline_timeout_keeps_quick_stats(cubic):
    r = run_case("cubic", cubic, 3, timeout=1e-6)
    assert r.timed_out
    assert r.error is None
    assert r.quick_seconds > 0
    assert r.baseline_seconds is None
    assert r.factor is None
    assert r.term_count == 109


def test_format_table(cubic):
    results = [
        run_case("fast", cubic, 1, baseline=False),
        run_case("slow", cubic, 2, timeout=1e-6),
    ]
    text = format_table(results)
    lines = text.splitlines()
    assert lines[0].split() == [
        "id", "level", "quick", "baseline", "factor", "terms", "degree", "digits", "note"
    ]
    assert set(lines[1]) == {"-", " "}
    assert "timeout" in lines[3]
    assert "10" in lines[2]


def test_csv_round_trip(cubic):
    results = [
        run_case("ok", cubic, 1),
        BenchResult("bad", 9, 1, None, None, None, None, None, None, False, "boom"),
    ]
    out = io.StringIO()
    to_csv(results, out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert rows[0][0] == "poly_id"
    assert len(rows) == 3
    ok = dict(zip(rows[0], rows[1]))
    assert ok["term_count"] == "10"
    assert float(ok["quick_seconds"]) == results[0].quick_seconds  # repr round-trips
    bad = dict(zip(rows[0], rows[2]))
    assert bad["error"] == "boom"
    assert bad["quick_seconds"] == ""
