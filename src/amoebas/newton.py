"""Newton polytope data: hull vertices, facet inequalities, lattice points.

Everything is exact integer/rational arithmetic. The hull of the support is
reduced to its affine hull first (equality constraints), projected to a
full-dimensional coordinate subspace, and described there by facet
inequalities: a monotone chain in dimension two, brute-force hyperplane
enumeration over point subsets above that. Lattice points come from a
bounding-box scan filtered through the exact constraints. Intended support
sizes are small (tens of terms, dimension up to three); everything still
works, just slower, beyond that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .poly import ExponentVector, LaurentPoly

IntVector = tuple[int, ...]
# constraint (a, c) encodes a . x <= c (inequalities) or a . x == c (equalities)
Constraint = tuple[IntVector, int]


@dataclass(frozen=True)
class NewtonData:
    """Convex hull of a support set and its exact constraints."""

    dim: int
    vertices: tuple[IntVector, ...]
    lattice_points: tuple[IntVector, ...]
    equalities: tuple[Constraint, ...] = field(default=(), repr=False)
    inequalities: tuple[Constraint, ...] = field(default=(), repr=False)


def _primitive(vector: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in vector:
        g = gcd(g, v)
    if g > 1:
        return tuple(v // g for v in vector)
    return vector


def _row_reduce(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Gauss-Jordan over exact rationals: (rank, pivot columns, rref)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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
        if r == nrows:
            break
    return r, pivots, mat


def _nullspace_int(rows: list[list[int]], ncols: int) -> list[IntVector]:
    """Primitive integer basis of the nullspace of an integer matrix."""
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    rank, pivots, rref = _row_reduce([[Fraction(v) for v in row] for row in rows])
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        scale = 1
        for v in vec:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = tuple(int(v * scale) for v in vec)
        basis.append(_primitive(ints))
    return basis


def _hull_2d(points: list[IntVector]) -> list[IntVector]:
    """Monotone chain; returns hull vertices counterclockwise, lex-least first."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_2d(hull: list[IntVector]) -> list[Constraint]:
    facets = []
    k = len(hull)
    for i in range(k):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % k]
        # outward normal of the CCW edge (x1,y1)->(x2,y2)
        normal = _primitive((y2 - y1, x1 - x2))
        rhs = normal[0] * x1 + normal[1] * y1
        facets.append((normal, rhs))
    return facets


def _facets_brute(points: list[IntVector], dim: int) -> list[Constraint]:
    """All facet half-spaces of a full-dimensional hull, by subset enumeration."""
    facets: set[Constraint] = set()
    for subset in itertools.combinations(points, dim):
        base = subset[0]
        rows = [[p[i] - base[i] for i in range(dim)] for p in subset[1:]]
        normals = _nullspace_int(rows, dim)
        if len(normals) != 1:
            continue  # subset does not span a hyperplane
        normal = normals[0]
        rhs = sum(a * x for a, x in zip(normal, base))
        side_hi = any(sum(a * x for a, x in zip(normal, p)) > rhs for p in points)
        side_lo = any(sum(a * x for a, x in zip(normal, p)) < rhs for p in points)
        if side_hi and side_lo:
            continue
        if not side_hi:
            facets.add((normal, rhs))
        if not side_lo:
            facets.add((tuple(-a for a in normal), -rhs))
    return sorted(facets)


def _vertices_from_facets(points: list[IntVector], facets: list[Constraint], dim: int) -> list[IntVector]:
    """A hull point is a vertex iff its active facet normals span the space."""
    vertices = []
    for p in sorted(set(points)):
        active = [list(normal) for normal, rhs in facets if sum(a * x for a, x in zip(normal, p)) == rhs]
        if len(active) < dim:
            continue
        rank, _, _ = _row_reduce([[Fraction(v) for v in row] for row in active])
        if rank == dim:
            vertices.append(p)
    return vertices


def newton(p: LaurentPoly) -> NewtonData:
    """Newton polytope of a nonzero Laurent polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    return hull_of_points(list(p.terms.keys()), p.nvars)


def hull_of_points(points: list[ExponentVector], dim: int) -> NewtonData:
    points = [tuple(pt) for pt in points]
    if not points:
        raise ValueError("empty point set")
    base = points[0]
    directions = [[q[i] - base[i] for i in range(dim)] for q in points[1:]]

    # affine hull: equalities a . x = a . base for nullspace directions a
    eq_normals = _nullspace_int(directions, dim) if directions else _nullspace_int([], dim)
    if not directions:
        eq_normals = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    equalities = tuple(
        (normal, sum(a * x for a, x in zip(normal, base))) for normal in eq_normals
    )
    rank = dim - len(eq_normals)

    if rank == 0:
        return NewtonData(dim, (base,), (base,), equalities, ())

    # project onto pivot coordinates of the direction matrix: injective on the hull
    _, pivots, _ = _row_reduce([[Fraction(v) for v in row] for row in directions])
    proj_cols = pivots
    proj = {tuple(q[c] for c in proj_cols): q for q in sorted(set(points), reverse=True)}
    proj_points = sorted(proj.keys())

    if rank == 1:
        lo, hi = proj_points[0], proj_points[-1]
        vertices_proj = [lo] if lo == hi else [lo, hi]
        c = proj_cols[0]
        unit = tuple(1 if i == c else 0 for i in range(dim))
        inequalities = [
            (unit, hi[0]),
            (tuple(-u for u in unit), -lo[0]),
        ]
    elif rank == 2:
        hull = _hull_2d(proj_points)
        vertices_proj = hull
        facets = _facets_2d(hull)  # rank 2: at least three hull vertices
        inequalities = [(_lift(normal, proj_cols, dim), rhs) for normal, rhs in facets]
    else:
        facets = _facets_brute(proj_points, rank)
        vertices_proj = _vertices_from_facets(proj_points, facets, rank)
        inequalities = [(_lift(normal, proj_cols, dim), rhs) for normal, rhs in facets]

    if rank == 2 and dim == 2:
        vertices = tuple(proj[v] for v in vertices_proj)  # CCW from the 2d hull
    else:
        vertices = tuple(sorted(proj[v] for v in vertices_proj))

    lattice = _lattice_points(vertices, equalities, tuple(inequalities), dim)
    return NewtonData(dim, vertices, lattice, equalities, tuple(inequalities))


def _lift(normal: IntVector, cols: list[int], dim: int) -> IntVector:
    lifted = [0] * dim
    for value, c in zip(normal, cols):
        lifted[c] = value
    return tuple(lifted)


def _lattice_points(
    vertices: tuple[IntVector, ...],
    equalities: tuple[Constraint, ...],
    inequalities: tuple[Constraint, ...],
    dim: int,
) -> tuple[IntVector, ...]:
    lows = [min(v[i] for v in vertices) for i in range(dim)]
    highs = [max(v[i] for v in vertices) for i in range(dim)]
    found = []
    for candidate in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        ok = all(
            sum(a * x for a, x in zip(normal, candidate)) == rhs for normal, rhs in equalities
        ) and all(
            sum(a * x for a, x in zip(normal, candidate)) <= rhs for normal, rhs in inequalities
        )
        if ok:
            found.append(candidate)
    return tuple(sorted(found))
