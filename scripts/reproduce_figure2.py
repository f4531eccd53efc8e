#!/usr/bin/env python3
"""Nested certificate regions of the modified cubic, as contours.

Rasterizes the region description of z1^3 + z2^3 + 2*z1*z2 + 1 at
levels 1 (blue), 2 (dark green), and 3 (red) over the magnitude box
[0.05, 3]^2 and overlays one contour per level.  Deeper levels hug the
unlog amoeba more tightly on the whole, though not monotonically:
patches exist where level 2 beats level 3.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amoebas.poly import parse
from amoebas.render import overlay_svg
from amoebas.semialg import rasterize_levels, semialg_description

DEFAULT_POLY = "z1^3 + z2^3 + 2*z1*z2 + 1"
LEVEL_COLORS = {1: "#0000FF", 2: "#006400", 3: "#FF0000"}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poly", default=DEFAULT_POLY)
    ap.add_argument("--levels", default="1,2,3")
    ap.add_argument("--res", type=int, default=512)
    ap.add_argument("--box", nargs=2, default=("1/20", "3"))
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    f = parse(args.poly, 2)
    levels = [int(k) for k in args.levels.split(",")]
    lo, hi = (Fraction(v) for v in args.box)

    systems = [semialg_description(f, k) for k in levels]
    layers = []
    deepest = None
    for k, raster in zip(levels, rasterize_levels(systems, lo, hi, args.res)):
        frac = raster.mask.mean()
        print(f"level {k}: {raster.mask.sum()} of {raster.mask.size} samples inside ({frac:.1%})")
        color = LEVEL_COLORS.get(k)
        layers.append((f"level {k}", raster.mask, color))
        deepest = raster.mask
    svg = overlay_svg(layers, lo, hi, base=deepest)
    path = out / "figure2_overlay.svg"
    path.write_text(svg)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
