"""Seeded inputs for every benchmark workload.

Seed 0 reproduces the canonical inputs exactly.  Other seeds substitute
z_i -> u_i*z_i and scale f by u_0, with seeded units u (+-1, and +-i for
the Gaussian input).  Coefficient magnitudes, supports, term counts and
coefficient sizes hold, and so does the work: the amoeba does not move,
and the folded product at any level where every u_i is a 2^k-th root of
unity is the same polynomial for every seed, which the fold check
enforces.  The seed also moves the grid box, the raster box and the
query points.  Drawing coefficients independently per term is not used:
the two sign classes of the cubic fold at 1.75 times different costs.

The program only ever receives the generated polynomial text and
command-line arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (coefficient as (re, im), exponent vector) in canonical print order
REAL_CUBIC = [((1, 0), (3, 0)), ((1, 0), (1, 1)), ((1, 0), (0, 3)), ((1, 0), (0, 0))]
GRID_CUBIC = [((1, 0), (3, 0)), ((2, 0), (1, 1)), ((1, 0), (0, 3)), ((1, 0), (0, 0))]
GAUSS_LAURENT = [
    ((2, -1), (1, -2)),
    ((Fraction(-3, 4), 0), (0, 0)),
    ((1, 0), (2, 0)),
    ((1, 1), (0, 1)),
]
LAURENT_3VAR = [
    ((1, 0), (1, 0, 0)),
    ((1, 0), (0, 1, 0)),
    ((1, 0), (0, 0, 1)),
    ((1, 0), (-1, -1, -1)),
    ((3, 0), (0, 0, 0)),
]

# the fold workload's three commands: (terms, level)
FOLD_CASES = {
    "fold_real": (REAL_CUBIC, 5),
    "fold_gauss": (GAUSS_LAURENT, 4),
    "fold_3var": (LAURENT_3VAR, 2),
}
# level of the fold that is compared against the nested-resultant
# baseline; the 3-variable baseline at level 2 runs for minutes
BASELINE_LEVEL = {"fold_real": 2, "fold_gauss": 2, "fold_3var": 1}

GRID_KMAX = 4
GRID_STEP = "1/100"
RASTER_LEVELS = "1,2,3,4"
RASTER_RES = 256
RASTER_THREADS = 2
QUERY_LEVEL = 5
QUERY_POINTS = 20_000
# prime, so every query point has exactly this common denominator
QUERY_DEN = 997


@dataclass(frozen=True)
class Inputs:
    """Everything one workload hands to the program for one seed."""

    poly: str
    nvars: int
    argv: tuple[str, ...] = ()
    level: int = 0
    points: tuple[tuple[Fraction, ...], ...] = ()


def _monomial(e):
    parts = []
    for i, p in enumerate(e):
        if p:
            parts.append(f"z{i + 1}" if p == 1 else f"z{i + 1}^{p}")
    return "*".join(parts)


def poly_text(terms):
    """Polynomial text in the CLI grammar; canonical terms print as given."""
    out = ""
    for (re, im), e in terms:
        re, im = Fraction(re), Fraction(im)
        mono = _monomial(e)
        if im:
            sign = "+" if im > 0 else "-"
            body = f"({re}{sign}{abs(im)}i)" + (f"*{mono}" if mono else "")
            out += body if not out else f" + {body}"
            continue
        mag = abs(re)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if not out:
            out = ("-" if re < 0 else "") + body
        else:
            out += f" {'-' if re < 0 else '+'} {body}"
    return out


def _times_unit(coeff, unit):
    (re, im), (ur, ui) = coeff, unit
    return (re * ur - im * ui, re * ui + im * ur)


def torus_units(terms, rng, gaussian=False):
    """u_0 * f(u_1*z_1, ..., u_n*z_n) for seeded units u."""
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)] if gaussian else [(1, 0), (-1, 0)]
    nvars = len(terms[0][1])
    u = [rng.choice(units) for _ in range(nvars + 1)]
    out = []
    for c, e in terms:
        c = _times_unit(c, u[0])
        for ui, p in zip(u[1:], e):
            # u^p for a unit u: u^-1 is its conjugate, and u^4 = 1
            c = _times_unit(c, _unit_power(ui, p % 4))
        out.append((c, e))
    return out


def _unit_power(u, p):
    out = (1, 0)
    for _ in range(p):
        out = _times_unit(out, u)
    return out


def _decimal(value: Fraction) -> str:
    # argparse takes "-1.75" as a value but "-7/4" as an option
    text = f"{float(value):.2f}"
    if Fraction(text) != value:
        raise ValueError(f"{value} has no two-digit decimal form")
    return text


def make_inputs(workload: str, seed: int) -> dict[str, Inputs]:
    """{command or call name: its inputs} for one workload and seed."""
    if workload == "fold":
        return {name: _fold_inputs(name, seed) for name in FOLD_CASES}
    return {workload: _inputs(workload, seed)}


def _fold_inputs(name, seed):
    rng = random.Random(f"{name}:{seed}")
    terms, level = FOLD_CASES[name]
    if seed:
        terms = torus_units(terms, rng, gaussian=name == "fold_gauss")
    text = poly_text(terms)
    return Inputs(text, len(terms[0][1]), ("cres", "-f", text, "-k", str(level)), level)


def _inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        terms = torus_units(GRID_CUBIC, rng) if seed else GRID_CUBIC
        text = poly_text(terms)
        if seed:
            shift = Fraction(rng.randint(-25, 25), 100)
            box = (_decimal(-2 + shift), _decimal(2 + shift))
        else:
            box = ("-2", "2")
        argv = ("amoeba", "-f", text, "--box", *box, "--step", GRID_STEP,
                "--kmax", str(GRID_KMAX), "--format", "csv")
        return Inputs(text, 2, argv, GRID_KMAX)
    if workload == "raster":
        terms = torus_units(REAL_CUBIC, rng) if seed else REAL_CUBIC
        text = poly_text(terms)
        argv = ("semialg", "-f", text, "-k", RASTER_LEVELS, "--format", "svg",
                "--res", str(RASTER_RES))
        if seed:
            shift = Fraction(rng.randint(0, 20), 100)
            argv += ("--box", _decimal(Fraction(1, 20) + shift), _decimal(3 + shift))
        return Inputs(text, 2, argv)
    if workload == "query":
        terms = torus_units(REAL_CUBIC, rng) if seed else REAL_CUBIC
        span = 2 * QUERY_DEN

        def coord():
            while True:
                a = rng.randint(-span, span)
                if a % QUERY_DEN:
                    return Fraction(a, QUERY_DEN)

        points = tuple((coord(), coord()) for _ in range(QUERY_POINTS))
        return Inputs(poly_text(terms), 2, level=QUERY_LEVEL, points=points)
    raise ValueError(f"unknown workload {workload!r}")
