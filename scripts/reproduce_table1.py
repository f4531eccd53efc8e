#!/usr/bin/env python3
"""Growth of the folded product for the running cubic example.

Prints one row per level: factor count, terms, total degree, decimal
digits of the largest coefficient, and the wall time of the fast route.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amoebas.bench import coeff_digits
from amoebas.cycres import quick_cyclic_resultant
from amoebas.poly import max_variable_index, parse

DEFAULT_POLY = "z1^3 + z1*z2 + z2^3 + 1"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poly", default=DEFAULT_POLY)
    ap.add_argument("--levels", type=int, default=6)
    args = ap.parse_args()

    f = parse(args.poly, max_variable_index(args.poly))
    print(f"input: {args.poly}  ({f.nvars} variables)")
    print(f"{'k':>2}  {'2^k':>4}  {'terms':>6}  {'degree':>7}  {'digits':>6}  {'seconds':>8}")
    total = 0.0
    for k in range(1, args.levels + 1):
        t0 = time.perf_counter()
        g = quick_cyclic_resultant(f, k)
        dt = time.perf_counter() - t0
        total += dt
        print(
            f"{k:>2}  {1 << k:>4}  {g.num_terms:>6}  {g.total_degree():>7}"
            f"  {coeff_digits(g):>6}  {dt:>8.3f}"
        )
    print(f"total {total:.2f}s")


if __name__ == "__main__":
    main()
