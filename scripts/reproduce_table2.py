#!/usr/bin/env python3
"""Fast route versus elimination baseline on the worked examples.

The baseline computes the same polynomial by eliminating one variable
at a time against u^r - 1, so its cost explodes with the level; cases
past the budget are reported as timeouts rather than waited on.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amoebas.bench import format_table, run_case, to_csv
from amoebas.poly import parse

CASES = [
    ("cubic", parse("z1^3 + z1*z2 + z2^3 + 1", 2), (1, 2, 3, 4)),
    ("gauss", parse("(5+1i)*z1^3 + (0+1i)*z1*z2 + (4+1i)*z2^3 + 1", 2), (1, 2)),
    ("threevar", parse("z1^4*z2 + z1*z2*z3^5 + z1^2*z2^4 + z1*z2^2 + z1*z2*z3 + z1*z2*z3^3 + 1", 3), (1,)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--timeout", type=float, default=90.0, help="baseline budget per case")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--csv", help="also write raw rows to this file")
    args = ap.parse_args()

    results = [
        run_case(pid, f, k, runs=args.runs, timeout=args.timeout)
        for pid, f, levels in CASES
        for k in levels
    ]
    print(format_table(results))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            to_csv(results, fh)
        print(f"wrote {args.csv}")
    return 0 if all(r.error is None for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
