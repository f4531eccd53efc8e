"""Image output for grid classifications and region rasters.

Two-variable only.  Grid verdicts become pixel maps or SVG scatters
colored by the level that certified each point; region bitmaps become
contour overlays via marching squares.  Everything is written with the
math orientation w2 increasing upward.
"""

from __future__ import annotations

import numpy as np

# certified points, by escalation depth
COLOR_CERT_LOW = (64, 224, 208)  # levels 0..2
COLOR_CERT_MID = (173, 216, 230)  # level 3
COLOR_CERT_HIGH = (0, 0, 139)  # level 4 and up
COLOR_AMOEBA = (255, 0, 0)  # never certified

CONTOUR_PALETTE = ("#40E0D0", "#ADD8E6", "#00008B", "#FF0000", "#228B22", "#FF8C00")


def level_color(record):
    if record.in_amoeba:
        return COLOR_AMOEBA
    if record.level <= 2:
        return COLOR_CERT_LOW
    if record.level == 3:
        return COLOR_CERT_MID
    return COLOR_CERT_HIGH


def records_to_pixels(records, spec):
    """Grid verdicts as an (H, W, 3) uint8 image, w2 up, w1 right.

    records is an ``approximate_amoeba`` result; colors follow
    ``level_color``, read from its level column.
    """
    if spec.nvars != 2:
        raise ValueError("pixel maps need a 2-variable grid")
    level = np.asarray(records.level).reshape(spec.counts)
    palette = np.array(
        [COLOR_AMOEBA, COLOR_CERT_LOW, COLOR_CERT_MID, COLOR_CERT_HIGH], dtype=np.uint8
    )
    shade = np.select([level < 0, level <= 2, level == 3], [0, 1, 2], 3)
    return palette[shade.T[::-1]]


def write_ppm(stream, pixels):
    """Binary PPM (P6); stream must be opened in binary mode."""
    h, w, depth = pixels.shape
    if depth != 3:
        raise ValueError("need RGB pixels")
    stream.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
    stream.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def _svg_head(lo, hi, size):
    span = float(hi - lo)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
        lambda x, y: (
            (float(x) - float(lo)) / span * size,
            size - (float(y) - float(lo)) / span * size,
        ),
    )


def scatter_svg(records, spec, size=640):
    """Colored dot per grid verdict, same palette as the pixel map."""
    if spec.nvars != 2:
        raise ValueError("scatter plots need a 2-variable grid")
    lo = min(spec.lo)
    hi = max(spec.hi)
    head, to_px = _svg_head(lo, hi, size)
    radius = max(1.0, size / (max(spec.counts) * 2.5))
    parts = [head]
    for rec in records:
        x, y = to_px(rec.point[0], rec.point[1])
        r, g, b = level_color(rec)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}" fill="rgb({r},{g},{b})"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


# marching squares: corner bits a=(i,j) b=(i+1,j) c=(i+1,j+1) d=(i,j+1),
# segment endpoints on cell edge midpoints named by the corner pair
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
    j along the second, spanning [lo, hi] with endpoints included.
    Returns a list of ((x1, y1), (x2, y2)) segments in data
    coordinates; saddle cells split arbitrarily.
    """
    r1, r2 = bitmap.shape
    lo = float(lo)
    s1 = (float(hi) - lo) / (r1 - 1)
    s2 = (float(hi) - lo) / (r2 - 1)
    segs = []
    for i in range(r1 - 1):
        for j in range(r2 - 1):
            code = (
                int(bitmap[i, j])
                | int(bitmap[i + 1, j]) << 1
                | int(bitmap[i + 1, j + 1]) << 2
                | int(bitmap[i, j + 1]) << 3
            )
            for e1, e2 in _CASES.get(code, ()):
                pts = []
                for name in (e1, e2):
                    di, dj = _EDGES[name]
                    pts.append((lo + (i + di) * s1, lo + (j + dj) * s2))
                segs.append(tuple(pts))
    return segs


def mask_to_pixels(mask, inside=COLOR_AMOEBA, outside=(255, 255, 255)):
    """Boolean raster as an (H, W, 3) image, first axis right, second up."""
    r1, r2 = mask.shape
    img = np.empty((r2, r1, 3), dtype=np.uint8)
    img[...] = outside
    img[np.asarray(mask).T[::-1]] = inside
    return img


def overlay_svg(layers, lo, hi, size=640, base=None):
    """Contour overlay: layers are (label, bitmap, color | None) triples.

    Bitmaps follow the boundary_segments convention.  base, when given,
    is painted as a light gray underlay so the contours have context.
    Colors default to a fixed palette.
    """
    head, to_px = _svg_head(lo, hi, size)
    parts = [head]
    if base is not None:
        r1, r2 = base.shape
        span = float(hi) - float(lo)
        s1 = span / (r1 - 1)
        s2 = span / (r2 - 1)
        w = s1 / span * size
        h = s2 / span * size
        for i in range(r1 - 1):
            for j in range(r2 - 1):
                if base[i, j]:
                    x, y = to_px(float(lo) + i * s1, float(lo) + (j + 1) * s2)
                    parts.append(
                        f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
                        f'height="{h:.2f}" fill="#dddddd"/>\n'
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
