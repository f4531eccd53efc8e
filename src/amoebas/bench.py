"""Timing harness: fast folded product versus elimination baseline.

Both routes compute the same exact polynomial, so besides mean wall
times each case reports the output's term count, total degree, and
largest coefficient size as a cheap integrity fingerprint.  Baseline
runs honor a cooperative timeout; a case that exceeds it keeps its
quick timing and reports the baseline as timed out.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

from .cycres import (
    BaselineTimeout,
    TermBudgetError,
    iterated_resultant_baseline,
    quick_cyclic_resultant,
)


@dataclass(frozen=True)
class BenchResult:
    poly_id: str
    level: int
    runs: int
    quick_seconds: float | None = None
    baseline_seconds: float | None = None
    factor: float | None = None
    term_count: int | None = None
    degree: int | None = None
    max_coeff_digits: int | None = None
    timed_out: bool = False
    error: str | None = None


def coeff_digits(p):
    """Decimal digits of the integer part of p's largest coefficient magnitude."""
    worst = max(c.abs_squared() for c in p.terms.values())
    return len(str(math.isqrt(worst.numerator // worst.denominator)))


DEFAULT_TIMEOUT = 300.0


def _mean_of(fn, runs):
    total = 0.0
    value = None
    for _ in range(runs):
        t0 = time.perf_counter()
        value = fn()
        total += time.perf_counter() - t0
    return value, total / runs


def run_case(poly_id, f, level, *, runs=1, baseline=True, timeout=None):
    """Time one polynomial at one level; never raises on budget errors.

    Reported seconds are the mean over runs, which must be at least 1.
    timeout of None means DEFAULT_TIMEOUT; it must be positive and bounds
    each baseline run separately.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if timeout is None:
        timeout = DEFAULT_TIMEOUT
    if not timeout > 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    try:
        g, tq = _mean_of(lambda: quick_cyclic_resultant(f, level), runs)
    except (TermBudgetError, ValueError) as exc:
        return BenchResult(poly_id, level, runs, error=str(exc))
    quick = dict(
        quick_seconds=tq,
        term_count=g.num_terms,
        degree=g.total_degree(),
        max_coeff_digits=coeff_digits(g),
    )
    if not baseline:
        return BenchResult(poly_id, level, runs, **quick)
    try:
        b, tb = _mean_of(
            lambda: iterated_resultant_baseline(f, 1 << level, timeout=timeout),
            runs,
        )
    except BaselineTimeout:
        return BenchResult(poly_id, level, runs, **quick, timed_out=True)
    except TermBudgetError as exc:
        return BenchResult(poly_id, level, runs, **quick, error=str(exc))
    if b != g:
        return BenchResult(
            poly_id, level, runs, **quick, baseline_seconds=tb,
            error="baseline and quick results differ",
        )
    factor = tb / tq if tq > 0 else math.inf
    return BenchResult(poly_id, level, runs, **quick, baseline_seconds=tb, factor=factor)


def _fmt_seconds(s):
    if s is None:
        return "-"
    if s < 1e-3:
        return f"{s*1e6:.0f}us"
    if s < 1.0:
        return f"{s*1e3:.1f}ms"
    return f"{s:.2f}s"


def format_table(results):
    header = ("id", "level", "quick", "baseline", "factor", "terms", "degree", "digits", "note")
    rows = [header]
    for r in results:
        note = "timeout" if r.timed_out else (r.error or "")
        rows.append(
            (
                r.poly_id,
                str(r.level),
                _fmt_seconds(r.quick_seconds),
                _fmt_seconds(r.baseline_seconds),
                "-" if r.factor is None else f"{r.factor:.1f}x",
                "-" if r.term_count is None else str(r.term_count),
                "-" if r.degree is None else str(r.degree),
                "-" if r.max_coeff_digits is None else str(r.max_coeff_digits),
                note,
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def to_csv(results, stream):
    writer = csv.writer(stream)
    writer.writerow(
        [
            "poly_id", "level", "runs", "quick_seconds", "baseline_seconds",
            "factor", "term_count", "degree", "max_coeff_digits", "timed_out", "error",
        ]
    )
    for r in results:
        writer.writerow(
            [
                r.poly_id, r.level, r.runs,
                "" if r.quick_seconds is None else repr(r.quick_seconds),
                "" if r.baseline_seconds is None else repr(r.baseline_seconds),
                "" if r.factor is None else repr(r.factor),
                "" if r.term_count is None else r.term_count,
                "" if r.degree is None else r.degree,
                "" if r.max_coeff_digits is None else r.max_coeff_digits,
                int(r.timed_out),
                r.error or "",
            ]
        )
