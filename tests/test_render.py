"""Marching squares: cell codes and the exact contour segment list."""

import re

import numpy as np

from amoebas.render import _contour, cell_codes, crossed_cells, overlay_svg
from oracles import boundary_segments

# code -> segments of the one cell of a 2x2 mask over [0, 2]^2, whose
# corners a=(0,0) b=(1,0) c=(1,1) d=(0,1) carry bits 0..3 of the code;
# edge midpoints land on whole numbers, saddles 5 and 10 split in two
ONE_CELL = {
    0: [],
    1: [((1.0, 0.0), (0.0, 1.0))],
    2: [((1.0, 0.0), (2.0, 1.0))],
    3: [((0.0, 1.0), (2.0, 1.0))],
    4: [((2.0, 1.0), (1.0, 2.0))],
    5: [((1.0, 0.0), (2.0, 1.0)), ((1.0, 2.0), (0.0, 1.0))],
    6: [((1.0, 0.0), (1.0, 2.0))],
    7: [((0.0, 1.0), (1.0, 2.0))],
    8: [((1.0, 2.0), (0.0, 1.0))],
    9: [((1.0, 0.0), (1.0, 2.0))],
    10: [((1.0, 0.0), (0.0, 1.0)), ((2.0, 1.0), (1.0, 2.0))],
    11: [((2.0, 1.0), (1.0, 2.0))],
    12: [((0.0, 1.0), (2.0, 1.0))],
    13: [((1.0, 0.0), (2.0, 1.0))],
    14: [((1.0, 0.0), (0.0, 1.0))],
    15: [],
}

# a 5x5 mask over [0, 12]^2 (step 3) whose cells mix both saddles with
# one-segment codes, and its segments in row-major cell order
GRID = np.array(
    [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1], [1, 1, 0, 0, 1], [0, 1, 1, 0, 1], [0, 0, 1, 1, 0]], dtype=bool
)
GRID_CODES = [[5, 10, 5, 6], [14, 3, 8, 13], [13, 7, 2, 12], [8, 13, 7, 10]]
GRID_SEGMENTS = [
    ((1.5, 0.0), (3.0, 1.5)),
    ((1.5, 3.0), (0.0, 1.5)),
    ((1.5, 3.0), (0.0, 4.5)),
    ((3.0, 4.5), (1.5, 6.0)),
    ((1.5, 6.0), (3.0, 7.5)),
    ((1.5, 9.0), (0.0, 7.5)),
    ((1.5, 9.0), (1.5, 12.0)),
    ((4.5, 0.0), (3.0, 1.5)),
    ((3.0, 4.5), (6.0, 4.5)),
    ((4.5, 9.0), (3.0, 7.5)),
    ((4.5, 9.0), (6.0, 10.5)),
    ((7.5, 0.0), (9.0, 1.5)),
    ((6.0, 4.5), (7.5, 6.0)),
    ((7.5, 6.0), (9.0, 7.5)),
    ((6.0, 10.5), (9.0, 10.5)),
    ((10.5, 3.0), (9.0, 1.5)),
    ((10.5, 3.0), (12.0, 4.5)),
    ((9.0, 7.5), (10.5, 9.0)),
    ((10.5, 9.0), (9.0, 10.5)),
    ((12.0, 10.5), (10.5, 12.0)),
]


def _one_cell(code):
    m = np.zeros((2, 2), dtype=bool)
    m[0, 0], m[1, 0], m[1, 1], m[0, 1] = (bool(code >> bit & 1) for bit in range(4))
    return m


def _array_segments(mask, lo, hi):
    """``render._contour``'s arrays as the reference's list of tuples."""
    x, y = _contour(mask, lo, hi)
    ends = (x[:, 0], y[:, 0], x[:, 1], y[:, 1])
    return [((a, b), (c, d)) for a, b, c, d in zip(*(v.tolist() for v in ends))]


def test_every_cell_code_segments():
    for code, want in ONE_CELL.items():
        mask = _one_cell(code)
        assert cell_codes(mask).tolist() == [[code]]
        assert boundary_segments(mask, 0, 2) == want, code
        assert _array_segments(mask, 0, 2) == want, code


def test_segments_follow_row_major_cells():
    assert cell_codes(GRID).tolist() == GRID_CODES
    i, j, codes = crossed_cells(GRID)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(4) for b in range(4)]
    assert codes.tolist() == sum(GRID_CODES, [])
    assert boundary_segments(GRID, 0, 12) == GRID_SEGMENTS
    assert _array_segments(GRID, 0, 12) == GRID_SEGMENTS


def test_array_segments_match_reference_on_random_mask():
    # every code, saddles included, at float lo, hi and step, bit for bit
    mask = np.random.default_rng(21).random((64, 64)) < 0.5
    assert set(cell_codes(mask).ravel().tolist()) == set(range(16))
    for lo, hi in [(0, 12), (0.05, 3.0), (-1.5, 2.25)]:
        want = boundary_segments(mask, lo, hi)
        assert len(want) > 64**2 // 2
        assert _array_segments(mask, lo, hi) == want


def test_uniform_masks_draw_empty_paths():
    for fill in (False, True):
        mask = np.full((9, 9), fill)
        svg = overlay_svg([("level 1", mask, None), ("level 2", mask, "#123456")], 0.5, 2)
        assert re.findall(r'<path d="([^"]*)"', svg) == ["", ""]

