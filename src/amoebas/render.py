"""Image output for grid classifications and region rasters.

Two-variable only.  Grid pictures color each point by one palette rule
on the ``GridVerdicts`` level column, formatting each SVG axis
coordinate once.  Region rasters are read through ``cell_codes``, whose
crossed cells are the one definition of where the boundary runs: the
marching-squares contour visits only those.
Everything is written with the math orientation w2 increasing upward.
"""

from __future__ import annotations

import numpy as np

SIZE = 640  # width and height of every SVG picture, in pixels

# certified points, by escalation depth
COLOR_CERT_LOW = (64, 224, 208)  # levels 0..2
COLOR_CERT_MID = (173, 216, 230)  # level 3
COLOR_CERT_HIGH = (0, 0, 139)  # level 4 and up
COLOR_AMOEBA = (255, 0, 0)  # never certified
COLOR_OUTSIDE = (255, 255, 255)  # raster samples outside the region

PALETTE = (COLOR_AMOEBA, COLOR_CERT_LOW, COLOR_CERT_MID, COLOR_CERT_HIGH)

CONTOUR_PALETTE = ("#40E0D0", "#ADD8E6", "#00008B", "#FF0000", "#228B22", "#FF8C00")


def check_grid_picture(nvars):
    """Raise ValueError unless a grid of ``nvars`` variables can be drawn."""
    if nvars != 2:
        raise ValueError("grid pictures need a 2-variable grid")


def _shades(records):
    """PALETTE index of every grid point, shape (count, count).

    The level column's -1 (never certified) is the amoeba color; certified
    levels 0..2, 3 and 4 up get the three certified shades.
    """
    spec = records.spec
    check_grid_picture(spec.nvars)
    level = np.asarray(records.level).reshape(spec.count, spec.count)
    return np.select([level < 0, level <= 2, level == 3], [0, 1, 2], 3)


def records_to_pixels(records):
    """Grid verdicts as an (H, W, 3) uint8 image, w2 up, w1 right.

    records is an ``approximate_amoeba`` result.
    """
    return np.array(PALETTE, dtype=np.uint8)[_shades(records).T[::-1]]


def write_ppm(stream, pixels):
    """Binary PPM (P6); stream must be opened in binary mode."""
    h, w, depth = pixels.shape
    if depth != 3:
        raise ValueError("need RGB pixels")
    stream.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
    stream.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def _svg_head(lo, hi):
    """SVG preamble, and the map of data (x, y) on [lo, hi]^2 to pixels, y up."""
    lo, span = float(lo), float(hi - lo)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>\n',
        lambda x, y: ((x - lo) / span * SIZE, SIZE - (y - lo) / span * SIZE),
    )


def scatter_svg(records):
    """Colored dot per grid verdict, same palette as the pixel map."""
    shades = _shades(records)
    spec = records.spec
    head, to_px = _svg_head(spec.lo, spec.hi)
    axis = np.array([float(v) for v in spec.axis_values()])
    xs, ys = to_px(axis, axis)
    radius = max(1.0, SIZE / (spec.count * 2.5))
    # each circle's text after cx, by shade and w2 index
    tails = [
        [f'{y:.2f}" r="{radius:.2f}" fill="rgb({r},{g},{b})"/>\n' for y in ys.tolist()]
        for r, g, b in PALETTE
    ]
    parts = [head]
    for x, row in zip(xs.tolist(), shades.tolist()):
        cx = f'<circle cx="{x:.2f}" cy="'
        parts.extend(cx + tails[s][j] for j, s in enumerate(row))
    parts.append("</svg>\n")
    return "".join(parts)


def cell_codes(mask):
    """Marching-squares code of every lattice cell, shape (r1 - 1, r2 - 1).

    Cell (i, j) has corners a=(i,j) b=(i+1,j) c=(i+1,j+1) d=(i,j+1);
    bit 0 is mask[a], bit 1 mask[b], bit 2 mask[c], bit 3 mask[d].
    """
    m = np.asarray(mask, dtype=np.uint8)
    return m[:-1, :-1] | m[1:, :-1] << 1 | m[1:, 1:] << 2 | m[:-1, 1:] << 3


def crossed_cells(mask):
    """Row-major (i, j, code) arrays of the cells the boundary crosses.

    A cell is crossed when its corner samples disagree, so its code is
    neither 0 nor 15.
    """
    codes = cell_codes(mask)
    i, j = np.nonzero((codes != 0) & (codes != 15))
    return i, j, codes[i, j]


# segment endpoints on cell edge midpoints named by the corner pair, as
# (di, dj) offsets from corner a of the cell
_EDGES = {"ab": (0.5, 0.0), "bc": (1.0, 0.5), "cd": (0.5, 1.0), "da": (0.0, 0.5)}
_CASES = {
    1: [("ab", "da")],
    2: [("ab", "bc")],
    3: [("da", "bc")],
    4: [("bc", "cd")],
    5: [("ab", "bc"), ("cd", "da")],
    6: [("ab", "cd")],
    7: [("da", "cd")],
    8: [("cd", "da")],
    9: [("ab", "cd")],
    10: [("ab", "da"), ("bc", "cd")],
    11: [("bc", "cd")],
    12: [("da", "bc")],
    13: [("ab", "bc")],
    14: [("ab", "da")],
}


def boundary_segments(bitmap, lo, hi):
    """Marching-squares contour of a point-sampled boolean raster.

    bitmap[i, j] is the sample at lattice point i along the first axis,
    j along the second, of a square lattice spanning [lo, hi] on both
    axes with endpoints included.
    Returns a list of ((x1, y1), (x2, y2)) segments in data
    coordinates, crossed cells in row-major order; saddle cells split
    arbitrarily.
    """
    lo = float(lo)
    step = (float(hi) - lo) / (len(bitmap) - 1)
    return [
        tuple((lo + (i + di) * step, lo + (j + dj) * step) for di, dj in (_EDGES[e1], _EDGES[e2]))
        for i, j, code in zip(*(a.tolist() for a in crossed_cells(bitmap)))
        for e1, e2 in _CASES[code]
    ]


def mask_to_pixels(mask):
    """Boolean raster as an (H, W, 3) image, first axis right, second up."""
    r1, r2 = mask.shape
    img = np.empty((r2, r1, 3), dtype=np.uint8)
    img[...] = COLOR_OUTSIDE
    img[np.asarray(mask).T[::-1]] = COLOR_AMOEBA
    return img


def overlay_svg(layers, lo, hi, base=None):
    """Contour overlay: layers are (label, bitmap, color | None) triples.

    Bitmaps follow the boundary_segments convention.  base, when given,
    is painted as a light gray underlay so the contours have context.
    Colors default to a fixed palette.
    """
    head, to_px = _svg_head(lo, hi)
    parts = [head]
    if base is not None:
        span = float(hi) - float(lo)
        step = span / (len(base) - 1)
        side = step / span * SIZE
        # a square per cell whose corner a is inside, placed by corner d
        i, j = np.nonzero(base[:-1, :-1])
        xs, ys = to_px(float(lo) + i * step, float(lo) + (j + 1) * step)
        for x, y in zip(xs.tolist(), ys.tolist()):
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{side:.2f}" '
                f'height="{side:.2f}" fill="#dddddd"/>\n'
            )
    for pos, (label, bitmap, color) in enumerate(layers):
        stroke = color or CONTOUR_PALETTE[pos % len(CONTOUR_PALETTE)]
        path = []
        for (x1, y1), (x2, y2) in boundary_segments(bitmap, lo, hi):
            ax, ay = to_px(x1, y1)
            bx, by = to_px(x2, y2)
            path.append(f"M {ax:.2f} {ay:.2f} L {bx:.2f} {by:.2f}")
        parts.append(
            f'<path d="{" ".join(path)}" stroke="{stroke}" fill="none" '
            f'stroke-width="1.5"><title>{label}</title></path>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
