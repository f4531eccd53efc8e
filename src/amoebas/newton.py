"""Lattice points of Newton polytopes, in exact integer arithmetic.

The lattice points of Newt(f), the convex hull of f's exponent vectors,
are the candidate component orders of the amoeba complement
(Forsberg-Passare-Tsikh).  One route serves every affine rank r from 0
to n: the support's affine hull gives integer equalities a . x = c;
projecting onto the r pivot coordinates of the support's directions is
injective on that hull; the projected hull's facets come from the
hyperplanes through r-point subsets of the projected support; and a
scan of the support's bounding box keeps the points that meet the
equalities and, once projected, the facet inequalities.  The subset
enumeration costs O(P^r) nullspaces for P support points, so intended
supports are small (tens of terms, dimension up to three).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .poly import ExponentVector, LaurentPoly

IntVector = tuple[int, ...]
# constraint (a, c) encodes a . x <= c (facets) or a . x == c (equalities)
Constraint = tuple[IntVector, int]


def _dot(a, x):
    return sum(u * v for u, v in zip(a, x))


def _primitive(vector: IntVector) -> IntVector:
    g = 0
    for v in vector:
        g = gcd(g, v)
    if g > 1:
        return tuple(v // g for v in vector)
    return vector


def _row_reduce(rows: list[list[int]]) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss-Jordan over exact rationals: (pivot columns, rref)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [v - factor * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return pivots, mat


def _nullspace_int(rows: list[list[int]], ncols: int) -> tuple[list[int], list[IntVector]]:
    """Pivot columns and a primitive integer nullspace basis of an integer matrix."""
    pivots, rref = _row_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        scale = 1
        for v in vec:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        basis.append(_primitive(tuple(int(v * scale) for v in vec)))
    return pivots, basis


def _facets(points: list[IntVector], dim: int) -> set[Constraint]:
    """Facet half-spaces of a full-dimensional hull, by subset enumeration.

    Each dim-point subset spanning a hyperplane gives a facet when every
    point lies on one side of it; in dimension 0 there are none.
    """
    facets: set[Constraint] = set()
    if dim == 0:
        return facets
    for subset in itertools.combinations(points, dim):
        base = subset[0]
        _, normals = _nullspace_int([[p - b for p, b in zip(q, base)] for q in subset[1:]], dim)
        if len(normals) != 1:
            continue  # the subset does not span a hyperplane
        normal = normals[0]
        rhs = _dot(normal, base)
        offsets = (_dot(normal, p) - rhs for p in points)
        side = next(v for v in offsets if v)  # the hull is full-dimensional
        if all(v * side >= 0 for v in offsets):  # the rest of the points
            facets.add((normal, rhs) if side < 0 else (tuple(-a for a in normal), -rhs))
    return facets


def newton(p: LaurentPoly) -> tuple[ExponentVector, ...]:
    """Sorted lattice points of the Newton polytope of a nonzero Laurent polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    points = sorted(p.terms)
    base = points[0]
    directions = [[a - b for a, b in zip(q, base)] for q in points[1:]]
    pivots, normals = _nullspace_int(directions, p.nvars)
    equalities = [(a, _dot(a, base)) for a in normals]
    facets = _facets(sorted({tuple(q[c] for c in pivots) for q in points}), len(pivots))
    box = (range(min(col), max(col) + 1) for col in zip(*points))
    return tuple(
        x
        for x in itertools.product(*box)
        if all(_dot(a, x) == c for a, c in equalities)
        and all(_dot(a, [x[c] for c in pivots]) <= rhs for a, rhs in facets)
    )
