"""Image output for grid classifications and region rasters.

Two-variable only.  Grid pictures color each point by one palette rule
on the ``GridVerdicts`` level column, formatting each SVG axis
coordinate once.  Region rasters are read through ``cell_codes``, whose
crossed cells are the one definition of where the boundary runs: the
marching-squares contour visits only those, looking each cell's code
up in a 16-code table of at most two segments and computing every
endpoint of a layer in one array pass.
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


def _segment_table():
    """(16, 2, 4) array: the (di1, dj1, di2, dj2) offsets of each code's
    segments in ``_CASES`` order, NaN in a code's unused slots."""
    table = np.full((16, 2, 4), np.nan)
    for code, pairs in _CASES.items():
        for slot, (e1, e2) in enumerate(pairs):
            table[code, slot] = _EDGES[e1] + _EDGES[e2]
    return table


_SEGMENTS = _segment_table()


def _contour(mask, lo, hi):
    """Marching-squares contour of a point-sampled boolean raster.

    mask[i, j] is the sample at lattice point i along the first axis,
    j along the second, of a square lattice spanning [lo, hi] on both
    axes with endpoints included.  Returns (x, y), each of shape (S, 2):
    segment s runs from (x[s, 0], y[s, 0]) to (x[s, 1], y[s, 1]) in data
    coordinates, crossed cells in row-major order and a cell's segments
    in ``_CASES`` order; saddle cells split arbitrarily.  Each
    coordinate is lo + (i + di) * step, as floats.
    """
    lo = float(lo)
    step = (float(hi) - lo) / (len(mask) - 1)
    i, j, codes = crossed_cells(mask)
    cell, slot = np.nonzero(~np.isnan(_SEGMENTS[codes, :, 0]))
    off = _SEGMENTS[codes[cell], slot]
    x = lo + (i[cell, None] + off[:, 0::2]) * step
    y = lo + (j[cell, None] + off[:, 1::2]) * step
    return x, y


def mask_to_pixels(mask):
    """Boolean raster as an (H, W, 3) image, first axis right, second up."""
    r1, r2 = mask.shape
    img = np.empty((r2, r1, 3), dtype=np.uint8)
    img[...] = COLOR_OUTSIDE
    img[np.asarray(mask).T[::-1]] = COLOR_AMOEBA
    return img


def overlay_svg(layers, lo, hi, base=None):
    """Contour overlay: layers are (label, bitmap, color | None) triples.

    Bitmaps follow the ``_contour`` convention.  base, when given, is
    painted as a light gray underlay so the contours have context.
    Colors default to a fixed palette.  Each layer's path and the
    underlay are formatted in one pass over their coordinate arrays.
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
        rect = f'<rect x="{{:.2f}}" y="{{:.2f}}" width="{side:.2f}" height="{side:.2f}" fill="#dddddd"/>\n'
        parts.extend(map(rect.format, xs.tolist(), ys.tolist()))
    for pos, (label, bitmap, color) in enumerate(layers):
        stroke = color or CONTOUR_PALETTE[pos % len(CONTOUR_PALETTE)]
        px, py = to_px(*_contour(bitmap, lo, hi))
        ends = (px[:, 0], py[:, 0], px[:, 1], py[:, 1])
        path = " ".join(map("M {:.2f} {:.2f} L {:.2f} {:.2f}".format, *(a.tolist() for a in ends)))
        parts.append(
            f'<path d="{path}" stroke="{stroke}" fill="none" '
            f'stroke-width="1.5"><title>{label}</title></path>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
