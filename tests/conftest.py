import re

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from amoebas.gaussian import GaussianRational
from amoebas.poly import LaurentPoly

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


# -- shared strategies -------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)

coefficients = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_coefficients = coefficients.filter(lambda c: not c.is_zero)


def exponent_vectors(nvars, lo=-3, hi=3):
    return st.tuples(*(st.integers(lo, hi) for _ in range(nvars)))


def polys(nvars, max_terms=5, lo=-3, hi=3, coeffs=nonzero_coefficients):
    return st.dictionaries(
        exponent_vectors(nvars, lo, hi), coeffs, min_size=1, max_size=max_terms
    ).map(lambda d: LaurentPoly(nvars, d))


def rational_points(nvars, bound=4, max_denominator=16):
    coord = st.fractions(
        min_value=-bound, max_value=bound, max_denominator=max_denominator
    )
    return st.tuples(*(coord for _ in range(nvars)))


@pytest.fixture
def cubic():
    from amoebas.poly import parse
    from oracles import CUBIC

    return parse(CUBIC, 2)


@pytest.fixture
def pool_chunks(monkeypatch):
    """Chunk count of every batch a ``TermTable`` maps over its pool."""
    from amoebas import lopsided

    chunks = []
    pool_map = lopsided.pool_map

    def spy(fn, items):
        chunks.append(len(items))
        return pool_map(fn, items)

    monkeypatch.setattr(lopsided, "pool_map", spy)
    return chunks


# -- acceptance criterion reporting ------------------------------------------

CRITERIA = {
    1: "golden level-2 fold of the cubic, term for term",
    2: "size ladder terms/degrees/digit count at levels 1..6",
    3: "quick route equals nested-resultant baseline exactly",
    4: "quick route at least 10x faster at level 4",
    5: "no false certificate on 100 points of the zero set",
    6: "numeric root-of-unity product matches within 1e-8",
    7: "orders: (1,1) at the origin for b=-4; all orders in the hull",
    8: "linear amoeba: grid within tolerance band; raster within one cell"
    " of the exact level-1 boundary, none certified inside the amoeba",
    9: "choose_level(2, 3, 1/2) = 7",
    10: "central hole first certified at level 3-4 (b=2), level 0 (b=-4)",
    11: "five property suites at 1000 cases each",
}

_CRIT_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRIT_RE.search(rep.nodeid)
            if not m:
                continue
            num = int(m.group(1))
            ok = status == "passed"
            outcomes[num] = outcomes.get(num, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA):
        if num not in outcomes:
            continue
        verdict = "PASS" if outcomes[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num:>2}: {verdict}  {CRITERIA[num]}")
