#!/usr/bin/env python3
"""Grid classification of the cubic family with and without a hole.

Runs the escalating classifier for z1^3 + b*z1*z2 + z2^3 + 1 at b = 2
and b = -4 on an 81x81 grid over [-2, 2]^2, then writes a pixel map and
a scatter plot per case.  Turquoise through dark blue shows how deep
the escalation had to go; red points were never certified.  At b = -4
a certified island of order (1, 1) opens around the origin.
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amoebas.gridsolver import GridSpec, approximate_amoeba
from amoebas.poly import parse
from amoebas.render import records_to_pixels, scatter_svg, write_ppm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--step", default="1/20")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = GridSpec(-2, 2, Fraction(args.step), 2)

    for b in (2, -4):
        f = parse(f"z1^3 + {b}*z1*z2 + z2^3 + 1".replace("+ -", "- "), 2)
        records = approximate_amoeba(f, spec, kmax=args.kmax)
        tag = f"b{b}".replace("-", "m")
        with open(out / f"figure1_{tag}.ppm", "wb") as fh:
            write_ppm(fh, records_to_pixels(records))
        (out / f"figure1_{tag}.svg").write_text(scatter_svg(records))
        # points per order, orders in row-major order of first appearance
        verdicts, inverse = records.classes()
        sizes = np.bincount(inverse, minlength=len(verdicts))
        first = np.unique(inverse, return_index=True)[1]
        orders = Counter()
        for i in np.argsort(first).tolist():
            if verdicts[i][1] is not None:
                orders[verdicts[i][1]] += int(sizes[i])
        red = int(np.count_nonzero(records.level < 0))
        print(f"b={b}: {red} presumed amoeba points, orders {dict(orders)}")
        hole = orders.get((1, 1), 0)
        print(f"  order (1,1) island: {hole} points {'(hole)' if hole else '(no hole)'}")
    print(f"wrote images to {out}/")


if __name__ == "__main__":
    main()
