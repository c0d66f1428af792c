"""Exact rational polyhedral computation.

Polytopes live in V-representation (extreme points only, lexicographically
sorted); a full-dimensional polytope also carries its facets.  One exact
beneath-beyond hull serves every dimension, over integers scaled from the
rational input, and one fraction-free elimination serves all of the linear
algebra.  Membership, containment, the gauge and the max-norm distance are
read off the facets of one such hull each.  There is no floating point
anywhere in this module.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Sequence

QVec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_qvec(vec: Sequence, dim: int | None = None) -> QVec:
    out = tuple(Fraction(c) for c in vec)
    if dim is not None and len(out) != dim:
        raise ValueError(f"vector has {len(out)} entries, expected {dim}")
    return out


class Facet(NamedTuple):
    """Inequality normal.x <= offset with coprime integer coefficients."""

    normal: tuple[int, ...]
    offset: int


class Anisotropy(NamedTuple):
    inradius_sq: Fraction
    circumradius_sq: Fraction
    isotropic: bool


@dataclass(frozen=True)
class Polytope:
    """Rational polytope: sorted extreme points, and facet inequalities when full-dimensional.

    An empty vertex tuple encodes the empty set.  ``convex_hull`` gives every
    full-dimensional polytope its facets, sorted, and leaves them ``None``
    otherwise; points lie in the polytope iff they satisfy every facet.
    """

    dim: int
    vertices: tuple[QVec, ...]
    facets: tuple[Facet, ...] | None = None

    @property
    def is_empty(self) -> bool:
        return not self.vertices


# ---------------------------------------------------------------------------
# exact linear algebra


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows scaled to integers by the lcm of their denominators, and that lcm."""
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Returns ``(reduced, pivots, last)``.  Row i < len(pivots) of ``reduced``
    holds ``last``, the last pivot, in column pivots[i] and zero in every
    other pivot column; the rows past the rank are zero.  Every entry is a
    minor of the input, so each division is exact.  A square matrix whose
    leading minors are nonzero is reduced without row swaps, and ``last`` is
    then its determinant.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    last = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        top = mat[r]
        piv = top[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(piv * a - f * b) // last for a, b in zip(row, top)]
        pivots.append(c)
        last = piv
    return mat, pivots, last


def affine_dimension(points: Sequence[QVec]) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    if not points:
        return -1
    base = points[0]
    rows, _ = _integer_rows([[a - b for a, b in zip(p, base)] for p in points[1:]])
    return len(_reduce(rows)[1])


# ---------------------------------------------------------------------------
# convex hulls


def _primitive(normal: Sequence[int], offset: int) -> Facet:
    """The inequality normal.x <= offset divided by the gcd of its coefficients."""
    g = math.gcd(*normal, offset)
    return Facet(tuple(c // g for c in normal), offset // g)


def _hull(points: Sequence[tuple[int, ...]]) -> tuple[list[int], set[Facet]]:
    """Beneath-beyond hull of distinct integer points that span Z^r affinely.

    Returns the indices of the extreme points and the facet inequalities.
    The boundary is kept as simplices, keyed by their sorted point indices: a
    point beyond some of them replaces them by the cones from the point over
    their horizon ridges, the ridges that only one of them has.  Normals are
    oriented away from the first simplex's centroid, which stays interior.
    Coplanar simplices share their primitive inequality, which merges them
    into one facet; an extreme point is one whose facet normals span R^r.
    """
    n, r = len(points), len(points[0])
    total = [sum(col) for col in zip(*points)]

    def spread(i: int) -> int:  # n^2 times the squared distance from the centroid
        return sum((n * x - t) ** 2 for x, t in zip(points[i], total))

    # Far points first: they tend to be extreme, and an interior point then
    # costs one scan of the boundary.
    order = sorted(range(n), key=lambda i: -spread(i))
    simplex = [order[0]]
    for i in order[1:]:
        base = points[simplex[0]]
        rows = [[a - b for a, b in zip(points[j], base)] for j in simplex[1:] + [i]]
        if len(_reduce(rows)[1]) == len(simplex):
            simplex.append(i)
            if len(simplex) == r + 1:
                break
    inner = [sum(col) for col in zip(*(points[i] for i in simplex))]

    def facet(key: tuple[int, ...]) -> Facet:
        base = points[key[0]]
        reduced, pivots, last = _reduce(
            [[a - b for a, b in zip(points[i], base)] for i in key[1:]]
        )
        free = next(c for c in range(r) if c not in pivots)
        normal = [0] * r
        normal[free] = last
        for row, c in zip(reduced, pivots):
            normal[c] = -row[free]
        offset = sum(a * x for a, x in zip(normal, base))
        if sum(a * x for a, x in zip(normal, inner)) > (r + 1) * offset:
            normal, offset = [-a for a in normal], -offset
        return _primitive(normal, offset)

    simplex.sort()
    boundary = {
        key: facet(key) for key in (tuple(simplex[:j] + simplex[j + 1:]) for j in range(r + 1))
    }
    for i in order:
        p = points[i]
        visible = [
            key for key, f in boundary.items()
            if sum(a * x for a, x in zip(f.normal, p)) > f.offset
        ]
        if not visible:
            continue
        ridges = Counter(key[:j] + key[j + 1:] for key in visible for j in range(r))
        for key in visible:
            del boundary[key]
        for ridge, count in ridges.items():
            if count == 1:
                key = tuple(sorted(ridge + (i,)))
                boundary[key] = facet(key)
    normals: dict[int, set[tuple[int, ...]]] = {}
    for key, f in boundary.items():
        for i in key:
            normals.setdefault(i, set()).add(f.normal)
    extreme = [i for i, ns in normals.items() if len(_reduce(list(ns))[1]) == r]
    return extreme, set(boundary.values())


def _scaled_hull(unique: Sequence[QVec]) -> tuple[list[int], int, list[int], set[Facet]]:
    """Pivot axes, integer scale, extreme-point indices and facets of two or more distinct points.

    The facets a.y <= b are over y, the pivot coordinates of scale * x.
    """
    ints, scale = _integer_rows(unique)
    _, axes, _ = _reduce([[a - b for a, b in zip(p, ints[0])] for p in ints[1:]])
    extreme, facets = _hull([tuple(p[c] for c in axes) for p in ints])
    return axes, scale, extreme, facets


def convex_hull(points: Iterable[Sequence], *, dim: int | None = None) -> Polytope:
    """Exact convex hull: deduplicated extreme points, plus facets when full-dimensional.

    ``dim`` is required for an empty input and validated otherwise.  The
    points are scaled to integers by the lcm of their denominators and
    projected onto the pivot coordinates of their affine hull, where one
    beneath-beyond pass finds the extreme points and the facets.
    """
    qpoints = [as_qvec(p) for p in points]
    if qpoints:
        inferred = len(qpoints[0])
        if any(len(p) != inferred for p in qpoints):
            raise ValueError("all points must share one dimension")
        if dim is not None and dim != inferred:
            raise ValueError(f"points have dimension {inferred}, expected {dim}")
        dim = inferred
    elif dim is None:
        raise ValueError("dim is required for an empty point set")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not qpoints:
        return Polytope(dim, ())
    unique = sorted(set(qpoints))
    if len(unique) == 1:
        return Polytope(dim, (unique[0],))
    axes, scale, extreme, facets = _scaled_hull(unique)
    vertices = tuple(unique[i] for i in sorted(extreme))
    if len(axes) < dim:
        return Polytope(dim, vertices)
    # a.(scale x) <= b is (scale a).x <= b
    rational = sorted(_primitive([scale * a for a in f.normal], f.offset) for f in facets)
    return Polytope(dim, vertices, tuple(rational))


def hull_ring_2d(p: Polytope) -> tuple[QVec, ...]:
    """Vertices of a 2-d polytope in counterclockwise boundary order, from the lex-least one.

    A full-dimensional polygon is walked facet by facet: each facet runs
    counterclockwise along its normal turned by a quarter turn.
    """
    if p.dim != 2:
        raise ValueError("boundary rings are only defined for 2-d polytopes")
    if p.facets is None:
        return p.vertices
    successor = {}
    for (a, b), offset in p.facets:
        start, end = sorted(
            (v for v in p.vertices if a * v[0] + b * v[1] == offset),
            key=lambda v: a * v[1] - b * v[0],
        )
        successor[start] = end
    ring = [p.vertices[0]]
    while len(ring) < len(p.vertices):
        ring.append(successor[ring[-1]])
    return tuple(ring)


# ---------------------------------------------------------------------------
# membership, gauge, distance


def contains_polytope(outer: Polytope, inner: Polytope) -> bool:
    """True iff inner is a subset of outer, i.e. each vertex of the hull of both is outer's."""
    if outer.dim != inner.dim:
        raise ValueError("polytopes must share one dimension")
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    both = convex_hull(outer.vertices + inner.vertices, dim=outer.dim)
    return set(both.vertices) <= set(outer.vertices)


def contains_point(p: Polytope, x: Sequence) -> bool:
    """Exact membership of x in the polytope: containment of the one-point polytope {x}."""
    if p.is_empty:
        raise ValueError("membership in the empty polytope is undefined")
    return contains_polytope(p, Polytope(p.dim, (as_qvec(x, p.dim),)))


def satisfies_facets(p: Polytope, x: Sequence) -> bool | None:
    """Facet-side membership check; None when no facet representation exists."""
    if p.facets is None:
        return None
    q = as_qvec(x, p.dim)
    return all(sum(n * c for n, c in zip(f.normal, q)) <= f.offset for f in p.facets)


def gauge_norm(p: Polytope, x: Sequence) -> Fraction | None:
    """Minkowski gauge min{t >= 0 : x in t*K} of K = conv(P and the origin).

    That is min sum(lam) over lam >= 0 with sum(lam_i v_i) = x.  K's facets
    a.y <= b have b >= 0, so the gauge is the largest a.x / b; it is None
    (infinite) when x leaves K's span or a facet with b = 0 has a.x > 0.
    """
    if p.is_empty:
        raise ValueError("gauge of the empty polytope is undefined")
    q = as_qvec(x, p.dim)
    if not any(q):  # this also keeps K = {0}, a single point, away from the hull
        return _ZERO
    if p.facets is not None and all(f.offset >= 0 for f in p.facets):
        facets, y = p.facets, q  # P holds the origin, so K = P
    else:
        points = sorted(set(p.vertices) | {(_ZERO,) * p.dim})
        if affine_dimension(points + [q]) > affine_dimension(points):
            return None
        axes, scale, _, facets = _scaled_hull(points)
        y = tuple(scale * q[c] for c in axes)
    gauge = _ZERO
    for f in facets:
        ay = sum(a * c for a, c in zip(f.normal, y))
        if f.offset:
            gauge = max(gauge, ay / f.offset)
        elif ay > 0:
            return None
    return gauge


def polytope_distance_inf(p: Polytope, x: Sequence) -> Fraction:
    """Exact max-norm distance from x to the polytope, from the facets of P + [-1, 1]^d.

    P + t*[-1, 1]^d has the same normals for every t > 0, and a facet a.y <= b
    of P + [-1, 1]^d has b = h_P(a) + |a|_1, so x lies in it iff a.x <= b + (t-1)|a|_1.
    """
    if p.is_empty:
        raise ValueError("distance to the empty polytope is undefined")
    q = as_qvec(x, p.dim)
    corners = list(product((-1, 1), repeat=p.dim))
    thick = convex_hull([tuple(c + s for c, s in zip(v, cs)) for v in p.vertices for cs in corners])
    dist = _ZERO
    for f in thick.facets:
        ax = sum(a * c for a, c in zip(f.normal, q))
        dist = max(dist, (ax - f.offset) / sum(map(abs, f.normal)) + 1)
    return dist


def is_symmetric(p: Polytope) -> bool:
    """True iff the vertex set equals its negation exactly."""
    vs = set(p.vertices)
    return vs == {tuple(-c for c in v) for v in vs}


def _holds_origin_inside(p: Polytope) -> bool:
    return p.facets is not None and all(f.offset > 0 for f in p.facets)


def origin_in_hull_interior(points: Sequence[Sequence], dim: int) -> bool:
    """Is the origin an interior point of the convex hull of the points?

    Exactly when the hull is full-dimensional and the origin lies strictly
    inside every facet, that is, every facet offset is positive.
    """
    return _holds_origin_inside(convex_hull(points, dim=dim))


def dimensionality(p: Polytope) -> tuple[int, bool]:
    """Affine dimension of the polytope and whether the origin is interior."""
    if p.is_empty:
        raise ValueError("dimensionality of the empty polytope is undefined")
    return affine_dimension(p.vertices), _holds_origin_inside(p)


# ---------------------------------------------------------------------------
# anisotropy


def _check_metric(metric: Sequence[Sequence], dim: int) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in metric]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"metric must be a {dim}x{dim} matrix")
    for i in range(dim):
        for j in range(i + 1, dim):
            if rows[i][j] != rows[j][i]:
                raise ValueError("metric must be symmetric")
    # Sylvester's criterion: every leading minor is positive.  While the
    # smaller ones are, eliminating the k x k block swaps no rows, so its
    # last pivot is the k-th leading minor.
    ints, _ = _integer_rows(rows)
    for k in range(1, dim + 1):
        _, pivots, last = _reduce([row[:k] for row in ints[:k]])
        if len(pivots) < k or last <= 0:
            raise ValueError("metric must be positive definite")
    return rows


def anisotropy(p: Polytope, metric: Sequence[Sequence] | None = None) -> Anisotropy:
    """Squared in/circumradius of a full-dimensional polytope around the origin.

    The circumradius uses the vertex maximizing x'Mx; the inradius uses the
    facet minimizing offset^2 / (a'M^-1 a).  Both are exact rationals, and a
    polytope is reported isotropic only when they coincide - which in
    dimension >= 2 never happens, polytopes not being balls.
    """
    if p.is_empty:
        raise ValueError("anisotropy of the empty polytope is undefined")
    if p.facets is None:
        raise ValueError("anisotropy requires the facet representation")
    if any(f.offset <= 0 for f in p.facets):
        raise ValueError("anisotropy requires the origin in the interior")
    d = p.dim
    m = _check_metric(metric, d) if metric is not None else [
        [_ONE if i == j else _ZERO for j in range(d)] for i in range(d)
    ]
    circum = max(
        sum(v[i] * m[i][j] * v[j] for i in range(d) for j in range(d)) for v in p.vertices
    )
    # With M = ints / scale, a'M^-1 a = scale * a.x for ints.x = a; one
    # elimination of [ints | every normal] leaves det * x in the columns.
    ints, scale = _integer_rows(m)
    reduced, _, det = _reduce([row + [f.normal[i] for f in p.facets] for i, row in enumerate(ints)])
    inrad = min(
        Fraction(
            f.offset * f.offset * det,
            scale * sum(a * row[d + k] for a, row in zip(f.normal, reduced)),
        )
        for k, f in enumerate(p.facets)
    )
    return Anisotropy(inrad, circum, inrad == circum)


# ---------------------------------------------------------------------------
# serialization


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def polytope_to_dict(p: Polytope) -> dict:
    out: dict = {
        "dim": p.dim,
        "vertices": [[format_rational(c) for c in v] for v in p.vertices],
    }
    if p.facets is not None:
        out["facets"] = [
            {"a": [str(c) for c in f.normal], "b": str(f.offset)} for f in p.facets
        ]
    return out


def polytope_from_dict(data: dict) -> Polytope:
    """Rebuild a polytope from its JSON form; vertices are the authoritative payload.

    Facets are recomputed rather than trusted, so the round trip is canonical.
    """
    try:
        dim = int(data["dim"])
        vertices = [tuple(parse_rational(c) for c in v) for v in data["vertices"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polytope JSON: {exc}") from None
    return convex_hull(vertices, dim=dim)


def polytope_to_json(p: Polytope) -> str:
    return json.dumps(polytope_to_dict(p), indent=2) + "\n"


def polytope_from_json(text: str) -> Polytope:
    return polytope_from_dict(json.loads(text))
