"""Inside proofs: zero counts at four angles retire only amoeba points.

Every retired row must be one that no level certifies, so each test
compares against the plain escalation, run with the proofs switched off
(``oracles.plain_escalation``).  Known counts are
compared with ``numpy.roots`` through ``oracles.zero_counts_at_angles``.
A grid is proven on the lattice of its axis values, each rounded to a
float once (``float`` of the ``Fraction``).
"""

import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from amoebas import cli, gridsolver, zerocount
from amoebas.gridsolver import GridSpec, _grid_rows, approximate_amoeba
from amoebas.lopsided import TermTable
from amoebas.poly import LaurentPoly, parse
from amoebas.semialg import _log_axis
from amoebas.zerocount import (
    _EXP_ERR,
    MAX_COUNT_DEGREE,
    _counted_variable,
    lattice_inside,
    lattice_zero_counts,
)
from oracles import (
    CUBIC_B2,
    CUBIC_BM4,
    GAUSS_PAIR,
    LINE,
    THREE_VAR,
    order_map_violations,
    plain_escalation,
    zero_counts_at_angles,
)


def _grid(spec):
    """(rows, den, w): the grid's numerator rows over den, and its axis floats."""
    den = math.lcm(spec.lo.denominator, spec.step.denominator)
    return _grid_rows(spec, den), den, np.array([float(x) for x in spec.axis_values()])


def _lattice_counts(f, w):
    """The four angles' lattice counts, shape (4, points), row major."""
    return np.stack([c.ravel() for c in lattice_zero_counts(f, w)])


def _proofs(f, spec, kmax=2):
    """Counts and retirements on every grid row, checked against the plain
    escalation: no retired row is certified at any level up to kmax."""
    rows, den, w = _grid(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _lattice_counts(f, w)
        retired = lattice_inside(f, w).ravel()
    assert counts.shape == (4, len(rows))
    plain = plain_escalation(f, spec, kmax)
    assert not np.any(plain.level[retired] >= 0)
    return rows, den, counts, retired


def _assert_counts_match_oracle(f, rows, den, counts):
    known = np.flatnonzero(np.any(counts >= 0, axis=0))
    assert known.size
    for i in known.tolist():
        want = zero_counts_at_angles(f, [Fraction(int(x), den) for x in rows[i]])
        got = counts[:, i].tolist()
        assert all(g == w for g, w in zip(got, want) if g >= 0), (rows[i], got, want)


def test_one_variable_proves_nothing():
    f = parse("z1^2 - 3*z1 + 1", 1)
    _, _, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 8), 1))
    assert np.all(counts == -1) and not retired.any()


def test_absent_variable_is_not_counted():
    # z3 has span 0, so z2 (span 1) is counted and z3 turns with z1
    f = parse(LINE, 3)
    assert _counted_variable(f) == (1, 1)
    _, _, counts, retired = _proofs(f, GridSpec(-1, 1, Fraction(1, 4), 3))
    assert retired.any() and np.all(counts >= 0)


def test_line_command_in_three_variables_is_unchanged(monkeypatch, tmp_path):
    argv = ["amoeba", "-f", LINE, "-n", "3", "--box", "-1", "1", "--step", "1/4", "--kmax", "2"]
    assert cli.main([*argv, "-o", str(tmp_path / "proofs.csv")]) == 0
    monkeypatch.setattr(gridsolver, "lattice_inside", lambda f, w: np.zeros((len(w),) * f.nvars, bool))
    assert cli.main([*argv, "-o", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "proofs.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_negative_exponent_in_the_counted_variable():
    f = parse("z1^2 + z1*z2^-1 + z2 + 1", 2)
    assert _counted_variable(f) == (1, 2)
    rows, den, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 4), 2))
    assert retired.any()
    _assert_counts_match_oracle(f, rows, den, counts)


def test_gaussian_coefficients():
    f = parse(GAUSS_PAIR, 2)
    rows, den, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 4), 2))
    assert retired.any()
    _assert_counts_match_oracle(f, rows, den, counts)


def test_leading_coefficient_vanishing_at_one_angle():
    # the z2^2 coefficient z1 - i vanishes at w1 = 0 for the angle i^1 only
    f = parse("z1*z2^2 + (0-1i)*z2^2 + z1^2 + 1", 2)
    assert _counted_variable(f) == (1, 2)
    rows, den, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 4), 2))
    on_axis = rows[:, 0] == 0
    assert np.all(counts[1, on_axis] == -1)
    assert np.any(counts[[0, 2, 3]][:, on_axis] >= 0)
    _assert_counts_match_oracle(f, rows, den, counts)


def test_double_root_on_the_circle():
    # (z2 - z1)^2: a double zero of modulus e^(w1) at every angle; off the
    # diagonal its two discs overlap, or the two roots numpy proposes
    # coincide and the count stays unknown
    f = parse("z1^2 - 2*z1*z2 + z2^2", 2)
    rows, den, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 4), 2))
    diagonal = rows[:, 0] == rows[:, 1]
    assert np.all(counts[:, diagonal] == -1)
    assert np.all(np.isin(counts[:, ~diagonal], (-1, 0, 2))) and not retired.any()
    assert np.mean(counts[:, ~diagonal] >= 0) > 0.5


@pytest.mark.parametrize("text", ["z1*z2^-1 + z1^-1*z2 + 2", "z1 - 3*z2 + z1*z2^-1"])
@pytest.mark.parametrize("lo", [10**19, 10**18])
def test_huge_points_stay_pending(text, lo):
    # numerators past int64 (10^19) and e^w past the float range (10^18)
    spec = GridSpec(lo, lo + 2, 1, 2)
    _, _, counts, retired = _proofs(parse(text, 2), spec, kmax=1)
    assert np.all(counts == -1) and not retired.any()


def test_degree_cap():
    spec = GridSpec(-1, 1, Fraction(1, 4), 2)
    for d, counted in ((MAX_COUNT_DEGREE, True), (MAX_COUNT_DEGREE + 1, False)):
        f = parse(f"z1^{d} + z2^{d} + 3*z1*z2 + 1", 2)
        _, _, counts, _ = _proofs(f, spec)
        assert np.any(counts >= 0) == counted


@pytest.mark.parametrize("text", [CUBIC_B2, CUBIC_BM4])
def test_zero_counts_equal_the_last_order_coordinate(text):
    # at a certified point N(theta) is constant and is the order's last
    # coordinate: by numpy.roots at all four angles, and by the proven
    # counts wherever they are known
    f = parse(text, 2)
    spec = GridSpec(-2, 2, Fraction(1, 20), 2)
    records = approximate_amoeba(f, spec, kmax=4)
    listed = list(records)
    counts = _lattice_counts(f, _grid(spec)[2])
    certified = np.flatnonzero(records.level >= 0)
    assert certified.size > 4000
    for i in certified.tolist():
        rec = listed[i]
        assert zero_counts_at_angles(f, rec.point) == [rec.order[-1]] * 4, rec
        assert all(c in (-1, rec.order[-1]) for c in counts[:, i].tolist()), rec


def test_grid_workload_retires_only_never_certified_rows():
    # the benchmark's grid at seed 0: level 0 leaves 31,100 rows pending,
    # and 23,475 of them are proven inside; the certified orders pass
    # the monotone order-map audit
    f = parse(CUBIC_B2, 2)
    spec = GridSpec(-2, 2, Fraction(1, 100), 2)
    rows, den, w = _grid(spec)
    ok, _, _ = TermTable(f, 0).classify(rows, den)
    pending = np.flatnonzero(~ok)
    retired = pending[lattice_inside(f, w).ravel()[pending]]
    assert (pending.size, retired.size) == (31_100, 23_475)
    plain = plain_escalation(f, spec, 4)
    assert np.all(plain.level[retired] == -1)
    records = approximate_amoeba(f, spec, kmax=4)
    assert list(records) == list(plain)
    assert not order_map_violations(records).any()


def test_grid_workload_proves_before_level_zero(monkeypatch):
    # of the 36,366 rows that level 0's certified tiles leave, the 23,475
    # proven inside skip every level: level 0 tests the other 12,891
    f = parse(CUBIC_B2, 2)
    spec = GridSpec(-2, 2, Fraction(1, 100), 2)
    tested = []
    classify = TermTable.classify
    monkeypatch.setattr(
        TermTable, "classify", lambda self, rows, den: tested.append(len(rows)) or classify(self, rows, den)
    )
    untiled = gridsolver._tile_peaks(TermTable(f, 0), spec, 100) < 0
    approximate_amoeba(f, spec, kmax=4)
    assert untiled.sum() == 36_366
    assert tested[0] == 12_891 == 36_366 - 23_475
    assert len(tested) == 5


def test_rows_past_int64_are_proven_inside(monkeypatch):
    # den = 10^19, so the numerators pass int64 and the rows are Python
    # ints, while every |w| <= 2 + 10^-19 lets e^w be taken; the grid
    # proves on the axis values rounded once, float(Fraction)'s bits
    f = parse(CUBIC_B2, 2)
    spec = GridSpec(-2 + Fraction(1, 10**19), 2 + Fraction(1, 10**19), Fraction(1, 4), 2)
    rows, den, w = _grid(spec)
    assert rows.dtype == object and den == 10**19
    ok, _, _ = TermTable(f, 0).classify(rows, den)
    pending = np.flatnonzero(~ok)
    retired = pending[lattice_inside(f, w).ravel()[pending]]
    assert retired.size == 33
    plain = plain_escalation(f, spec, 3)
    assert np.all(plain.level[retired] == -1)
    axes = []
    monkeypatch.setattr(gridsolver, "lattice_inside", lambda f, w: axes.append(w) or lattice_inside(f, w))
    assert list(approximate_amoeba(f, spec, kmax=3)) == list(plain)
    assert len(axes) == 1 and axes[0].tobytes() == w.tobytes()


def test_csv_bytes_equal_the_plain_escalation():
    f = parse(CUBIC_BM4, 2)
    spec = GridSpec(-2, 2, Fraction(1, 20), 2)
    outs = []
    for records in (approximate_amoeba(f, spec, kmax=4), plain_escalation(f, spec, 4)):
        out = io.StringIO()
        gridsolver.records_to_csv(records, out)
        outs.append(out.getvalue())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text, counted_last",
    [
        (CUBIC_B2, CUBIC_B2),
        (GAUSS_PAIR, GAUSS_PAIR),
        # z1 is counted, so the counts come back transposed
        ("z1^2 + z1*z2^3 + z2^3 + 1", "z2^2 + z2*z1^3 + z1^3 + 1"),
    ],
)
def test_lattice_counts_match_numpy_roots(text, counted_last):
    # every known count at a raster sample is the one numpy.roots finds
    # for the same polynomial with its variables swapped so that the
    # counted one is last
    f, last = parse(text, 2), parse(counted_last, 2)
    w = _log_axis(Fraction(1, 20), Fraction(3), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = np.stack(list(lattice_zero_counts(f, w)))
    assert counts.shape == (4, 40, 40) and counts.dtype == np.int8
    assert np.mean(counts >= 0) > 0.5
    swap = text != counted_last
    assert _counted_variable(f)[0] == (0 if swap else 1)
    for i, j in np.argwhere(np.any(counts >= 0, axis=0)).tolist():
        want = zero_counts_at_angles(last, [w[j], w[i]] if swap else [w[i], w[j]])
        got = counts[:, i, j].tolist()
        assert all(g == c for g, c in zip(got, want) if g >= 0), (i, j, got, want)
    if swap:
        inside = lattice_inside(f, w)
        assert inside.any() and np.array_equal(inside, lattice_inside(last, w).T)


def _counted_last(f):
    """(g, order): f with its variables reordered so that the counted one
    is last, g's variable k being f's variable order[k]."""
    v = _counted_variable(f)[0]
    order = [j for j in range(f.nvars) if j != v] + [v]
    return LaurentPoly(f.nvars, {tuple(e[j] for j in order): c for e, c in f.terms.items()}), order


@pytest.mark.parametrize(
    "text, counted",
    [
        ("z1 + z1*z2^2*z3 + z2^2 + z3^3 + 1", 0),
        ("z1^2 + z2^2*z3^3 + z3 + z2 + 1", 1),
    ],
)
def test_three_variable_counts_put_the_counted_axis_in_place(text, counted):
    # the counts of a first or middle counted variable are those of the
    # same polynomial with its variables reordered so that the counted
    # one is last, with the lattice axes reordered alike, and every
    # known count is the one numpy.roots finds there
    f = parse(text, 3)
    assert _counted_variable(f)[0] == counted
    g, order = _counted_last(f)
    assert _counted_variable(g)[0] == 2
    spec = GridSpec(-2, 2, Fraction(1, 4), 3)
    w = _grid(spec)[2]
    counts = np.stack(list(lattice_zero_counts(f, w)))
    assert counts.shape == (4, 17, 17, 17)
    back = np.argsort(order).tolist()  # f's axis j is g's axis back[j]
    reordered = np.stack(list(lattice_zero_counts(g, w))).transpose(0, *(k + 1 for k in back))
    assert np.array_equal(counts, reordered)
    for index in np.argwhere(np.any(counts >= 0, axis=0)).tolist():
        want = zero_counts_at_angles(g, [w[index[j]] for j in order])
        got = counts[(slice(None), *index)].tolist()
        assert all(c == x for c, x in zip(got, want) if c >= 0), (index, got, want)
    inside = lattice_inside(f, w)
    assert inside.any() and np.array_equal(inside, lattice_inside(g, w).transpose(back))
    _proofs(f, spec, kmax=1)


def test_lattice_double_root_on_the_circle():
    # (z2 - z1)^2 at the raster samples: on the diagonal the double zero
    # lies on the circle, so no count is known there, and the counts off
    # it, where known, are 0 or 2 and prove nothing
    f = parse("z1^2 - 2*z1*z2 + z2^2", 2)
    w = _log_axis(Fraction(1, 20), Fraction(3), 40)
    counts = np.stack(list(lattice_zero_counts(f, w)))
    diagonal = np.eye(40, dtype=bool)
    assert np.all(counts[:, diagonal] == -1)
    assert np.all(np.isin(counts[:, ~diagonal], (-1, 0, 2)))
    assert np.mean(counts[:, ~diagonal] >= 0) > 0.5
    assert not lattice_inside(f, w).any()


def test_lattice_counts_hold_on_a_decreasing_axis():
    # nothing assumes the circles grow along the axis: on the reversed
    # axis every known count is still the one numpy.roots finds, and the
    # proofs are the forward ones reversed
    f = parse(CUBIC_B2, 2)
    w = _log_axis(Fraction(1, 20), Fraction(3), 16)[::-1]
    counts = np.stack(list(lattice_zero_counts(f, w)))
    assert np.mean(counts >= 0) > 0.5
    for i, j in np.argwhere(np.any(counts >= 0, axis=0)).tolist():
        want = zero_counts_at_angles(f, [w[i], w[j]])
        got = counts[:, i, j].tolist()
        assert all(g == c for g, c in zip(got, want) if g >= 0), (i, j, got, want)
    inside = lattice_inside(f, w)
    assert inside.any() and np.array_equal(inside, lattice_inside(f, w[::-1])[::-1, ::-1])


def test_lattice_proof_holds_no_four_angle_array(monkeypatch):
    # the proof keeps a running max and min of the known counts and one
    # angle's counts at a time, in blocks of rows: at res 1024 its traced
    # peak stays below 6 bytes per sample (four full-size int8 arrays
    # and the blocks), where the (4, R, R) counts alone took 4
    f = parse(CUBIC_B2, 2)
    w = _log_axis(Fraction(1, 20), Fraction(3), 1024)
    tracemalloc.start()
    try:
        inside = lattice_inside(f, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside.any() and peak < 6 * len(w) ** 2
    # blocks of 7 rows, the last one short, give the counts of one block,
    # and the running max and min the mask of all four angles at once
    w = w[::25]
    whole = np.stack(list(lattice_zero_counts(f, w)))
    most = whole.max(axis=0)
    monkeypatch.setattr(zerocount, "_BATCH_VALUES", 7 * len(w))
    assert np.array_equal(np.stack(list(lattice_zero_counts(f, w))), whole)
    assert np.array_equal(lattice_inside(f, w), np.where(whole < 0, most, whole).min(axis=0) < most)


def test_three_variable_lattice_blocks_give_the_whole_counts(monkeypatch):
    # in three variables the blocks run over the 9^2 prefix points: blocks
    # of 7 of them (the last one short) for the comparisons, and of 15
    # for the discs, give the counts of one block
    f = parse(THREE_VAR, 3)
    w = _grid(GridSpec(-1, 1, Fraction(1, 4), 3))[2]
    whole = np.stack(list(lattice_zero_counts(f, w)))
    inside = lattice_inside(f, w)
    assert whole.shape == (4, 9, 9, 9) and inside.any()
    monkeypatch.setattr(zerocount, "_BATCH_VALUES", 7 * len(w))
    assert np.array_equal(np.stack(list(lattice_zero_counts(f, w))), whole)
    assert np.array_equal(lattice_inside(f, w), inside)


def test_rejected_polynomials_are_not_iterated(monkeypatch):
    # the z2^2 coefficient z1^3 - 1 vanishes at w1 = 0 for the angle 0
    # only: that polynomial is rejected and never handed to the
    # proposer, so its counts stay unknown, and every known count is
    # the one numpy.roots finds
    f = parse("z1^3*z2^2 - z2^2 + z1^3 + z2 + 1", 2)
    assert _counted_variable(f) == (1, 2)
    proposed = []
    aberth = zerocount._aberth
    monkeypatch.setattr(zerocount, "_aberth", lambda monic: proposed.append(monic.shape) or aberth(monic))
    rows, den, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 8), 2))
    assert proposed == [(4 * 33 - 1, 2)] * 2
    assert np.all(counts[0, rows[:, 0] == 0] == -1)
    assert np.count_nonzero(counts >= 0) == 4_323 and np.count_nonzero(retired) == 134
    _assert_counts_match_oracle(f, rows, den, counts)


def test_aberth_proposes_the_numpy_roots():
    # the proposals of seeded polynomials of every degree up to the cap
    # lie within 1e-8 (relative) of numpy.roots' roots
    rng = np.random.default_rng(0)
    for d in range(1, MAX_COUNT_DEGREE + 1):
        monic = rng.normal(size=(50, d)) + 1j * rng.normal(size=(50, d))
        roots = zerocount._aberth(monic)
        assert roots.shape == (d, 50)
        for p in range(50):
            want = np.roots(np.r_[1, monic[p, ::-1]])
            near = np.min(np.abs(roots[:, p, None] - want[None, :]), axis=0)
            assert np.all(near <= 1e-8 * np.max(np.abs(want))), (d, p)


@pytest.mark.parametrize("text", [CUBIC_B2, GAUSS_PAIR])
def test_perturbed_proposals_prove_only_true_counts(monkeypatch, text):
    # the inclusion discs, not the proposer, decide: with every proposal
    # moved by a relative 1e-3 the discs grow and fewer counts are known,
    # but each known count is still numpy.roots', and no retired row is
    # one that a level certifies
    f = parse(text, 2)
    spec = GridSpec(-2, 2, Fraction(1, 8), 2)
    exact = _proofs(f, spec, kmax=4)[2]
    aberth = zerocount._aberth
    monkeypatch.setattr(zerocount, "_aberth", lambda monic: aberth(monic) * (1 + 1e-3))
    rows, den, counts, _ = _proofs(f, spec, kmax=4)
    assert 0 < np.count_nonzero(counts >= 0) < np.count_nonzero(exact >= 0)
    _assert_counts_match_oracle(f, rows, den, counts)


def test_coincident_proposals_prove_nothing(monkeypatch):
    # d equal proposals fail the gap check (and leave no separation to
    # divide by): every count is unknown
    monkeypatch.setattr(zerocount, "_aberth", lambda monic: np.ones(monic.shape[::-1], dtype=complex))
    f = parse(CUBIC_B2, 2)
    _, _, counts, retired = _proofs(f, GridSpec(-2, 2, Fraction(1, 8), 2))
    assert np.all(counts == -1) and not retired.any()


def test_exp_stays_within_its_error_bound():
    # the proofs take numpy's exp to be within _EXP_ERR of e^x, relatively
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(-700, 700, 4000), rng.uniform(-3, 3, 4000)])
    with mpmath.workdps(30):
        worst = max(abs(mpmath.mpf(g) / mpmath.exp(x) - 1) for x, g in zip(xs.tolist(), np.exp(xs).tolist()))
    assert worst <= _EXP_ERR
