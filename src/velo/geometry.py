"""Exact rational polyhedral computation.

Polytopes live in V-representation (extreme points only, lexicographically
sorted); a full-dimensional polytope also carries its facets.  One exact
beneath-beyond hull serves every dimension; it keeps each point as a
homogeneous integer pair (D, T), the point D/T, and builds a ``Fraction``
only for the vertices it outputs.  One fraction-free elimination serves all
of the linear algebra.  Membership, containment, the gauge and the max-norm
distance are read off the facets of one such hull each.  There is no
floating point anywhere in this module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

QVec = tuple[Fraction, ...]
Pair = tuple[tuple[int, ...], int]  # (D, T) with T > 0: the rational point D/T

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


def _kernel(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """A basis of the integer vectors orthogonal to every row, one per non-pivot column."""
    reduced, pivots, last = _reduce(rows)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[free] = last
        for row, c in zip(reduced, pivots):
            vec[c] = -row[free]
        basis.append(vec)
    return basis


def _affine_normals(points: Iterable[Pair]) -> list[list[int]]:
    """Integer normals to the affine hull of the pairs (D, T): the kernel of rows T_0 D_i - T_i D_0."""
    (d0, t0), *rest = points
    return _kernel([[t0 * a - t * b for a, b in zip(d, d0)] for d, t in rest], len(d0))


def affine_dimension(points: Sequence[QVec]) -> int:
    """Dimension of the points' affine hull, read off their pairs (D, T); -1 for none, 0 for one."""
    pairs = [_homogeneous(as_qvec(p)) for p in points]
    return len(pairs[0][0]) - len(_affine_normals(pairs)) if pairs else -1


# ---------------------------------------------------------------------------
# convex hulls


def _homogeneous(p: QVec) -> Pair:
    """The rational point as its reduced pair (D, T): T the lcm of its denominators, D = T * p."""
    t = math.lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (t // c.denominator) for c in p), t


def _rational(p: Pair) -> QVec:
    d, t = p
    return tuple(Fraction(c, t) for c in d)


def _primitive(normal: Sequence[int], offset: int) -> Facet:
    """The inequality normal.x <= offset divided by the gcd of its coefficients."""
    g = math.gcd(*normal, offset)
    return Facet(tuple(c // g for c in normal), offset // g)


class _Hull:
    """Beneath-beyond hull of distinct rational points, grown one point at a time.

    Each point is a homogeneous pair (D, T): an integer vector D and an
    integer T > 0 with gcd(D, T) = 1, the point D/T.  ``scale`` is the lcm of
    the Ts, and the hull is kept over y, the pivot coordinates ``axes`` of
    scale * D/T, integers that span Z^r affinely; the points given first fix
    the affine hull, and a later point with a new T raises ``scale``.  The
    boundary is kept as simplices, keyed by their sorted point indices: a
    point beyond some of them replaces them by the cones from the point over
    their horizon ridges, the ridges that only one of them has.  Normals are
    oriented away from the first simplex's centroid, which stays interior.
    Coplanar simplices share their primitive inequality, which merges them
    into one facet; an extreme point is one whose facet normals span R^r.
    No ``Fraction`` is built but the output vertices of ``polytope``.
    """

    def __init__(self, points: Sequence[Pair]) -> None:
        self.points = list(points)
        scale = self.scale = math.lcm(*(t for _, t in points))
        ints = [[c * (scale // t) for c in d] for d, t in points]
        _, self.axes, _ = _reduce([[a - b for a, b in zip(p, ints[0])] for p in ints[1:]])
        ys = self.ys = [tuple(p[c] for c in self.axes) for p in ints]
        n, r = len(ys), len(self.axes)
        total = [sum(col) for col in zip(*ys)]

        def spread(i: int) -> int:  # n^2 times the squared distance from the centroid
            return sum((n * x - t) ** 2 for x, t in zip(ys[i], total))

        # Far points first: they tend to be extreme, and an interior point then
        # costs one scan of the boundary.
        order = sorted(range(n), key=lambda i: -spread(i))
        # The first simplex: the far point and each point whose difference from
        # it is independent of those before it, the differences' pivot columns.
        base = ys[order[0]]
        diffs = [[a - b for a, b in zip(ys[i], base)] for i in order[1:]]
        simplex = [order[0]] + [order[1 + j] for j in _reduce(list(zip(*diffs)))[1]]
        self.inner = [sum(col) for col in zip(*(ys[i] for i in simplex))]
        simplex.sort()
        self.boundary = {
            key: self._facet(key)
            for key in (tuple(simplex[:j] + simplex[j + 1:]) for j in range(r + 1))
        }
        seed = set(simplex)
        for i in order:
            if i not in seed:
                self._insert(i)

    def _facet(self, key: tuple[int, ...]) -> Facet:
        ys, r = self.ys, len(self.axes)
        base = ys[key[0]]
        rows = [[a - b for a, b in zip(ys[i], base)] for i in key[1:]]
        if r == 2:  # the normal is a quarter turn of the edge, or the cross product
            normal = [-rows[0][1], rows[0][0]]
        elif r == 3:  # of two edges, either much cheaper than an elimination
            (a1, a2, a3), (b1, b2, b3) = rows
            normal = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
        else:
            normal = _kernel(rows, r)[0]
        offset = sum(map(mul, normal, base))
        if sum(map(mul, normal, self.inner)) > (r + 1) * offset:
            normal, offset = [-a for a in normal], -offset
        return _primitive(normal, offset)

    def _insert(self, i: int) -> None:
        y, boundary = self.ys[i], self.boundary
        visible = [key for key, f in boundary.items() if sum(map(mul, f.normal, y)) > f.offset]
        # each ridge lies on two simplices, so the horizon is the ridges met once
        horizon: set[tuple[int, ...]] = set()
        for key in visible:
            del boundary[key]
            horizon ^= {key[:j] + key[j + 1:] for j in range(len(key))}
        for ridge in horizon:
            key = tuple(sorted(ridge + (i,)))
            boundary[key] = self._facet(key)

    def add(self, p: Pair) -> None:
        """Insert a reduced pair (D, T) of the affine hull that is not one of the points yet."""
        d, t = p
        k = math.lcm(self.scale, t) // self.scale
        if k > 1:
            self.scale *= k
            self.ys = [tuple(k * c for c in y) for y in self.ys]
            self.inner = [k * c for c in self.inner]
            # a facet's normal is coprime already, for b = a.y over integer points
            self.boundary = {key: f._replace(offset=k * f.offset)
                             for key, f in self.boundary.items()}
        self.points.append(p)
        m = self.scale // t
        self.ys.append(tuple(d[c] * m for c in self.axes))
        self._insert(len(self.ys) - 1)

    def facets(self) -> set[Facet]:
        """The facets a.y <= b."""
        return set(self.boundary.values())

    def polytope(self) -> Polytope:
        dim = len(self.points[0][0])
        normals: dict[int, set[tuple[int, ...]]] = {}
        for key, f in self.boundary.items():
            for i in key:
                normals.setdefault(i, set()).add(f.normal)
        # For r <= 3, r distinct normals already span R^r: a point inside an
        # edge of a 3-polytope lies on exactly two facets, inside a facet on one.
        r, scale = len(self.axes), self.scale
        extreme = [self.points[i] for i, ns in normals.items()
                   if len(ns) >= r and (r <= 3 or len(_reduce(list(ns))[1]) == r)]
        # scale * x is an integer vector in the order of x
        extreme.sort(key=lambda p: [c * (scale // p[1]) for c in p[0]])
        vertices = tuple(map(_rational, extreme))
        if r < dim:
            return Polytope(dim, vertices)
        # a.(scale x) <= b is (scale a).x <= b
        facets = sorted(_primitive([self.scale * a for a in f.normal], f.offset)
                        for f in self.facets())
        return Polytope(dim, vertices, tuple(facets))


def convex_hull(points: Iterable[Sequence], *, dim: int | None = None) -> Polytope:
    """Exact convex hull: deduplicated extreme points, plus facets when full-dimensional.

    ``dim`` is required for an empty input and validated otherwise.  Each
    point enters the hull once as its pair (D, T), T the lcm of its
    denominators; the hull projects them onto the pivot coordinates of their
    affine hull, where one beneath-beyond pass finds the extreme points and
    the facets.
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
    unique = list(dict.fromkeys(map(_homogeneous, qpoints)))
    if len(unique) == 1:
        return Polytope(dim, (qpoints[0],))
    return _Hull(unique).polytope()


def polytope_from_support(support: Callable[[tuple[int, ...]], Pair], dim: int) -> Polytope:
    """The polytope P, as ``convex_hull`` gives it, from its support oracle alone.

    ``support(u)``, for a primitive integer u, returns a point of P where u.x
    is largest, as an integer vector D and a positive integer T with x = D/T;
    no direction is asked twice.  Each answer is kept as its pair (D, T) in
    lowest terms, so one point answered under two spellings is one point, and
    only the output vertices become ``Fraction``s.  The loop is
    output-sensitive (Emiris, Fisikopoulos, Konaxis and Penaranda 2013).  The
    points for +-e_i are extended to P's affine hull by asking + and - each
    normal of their own affine hull, the kernel of the integer rows
    T_0 D_i - T_i D_0, until no answer leaves it.  A hull of them then asks
    each of its facet normals and takes in the answer whenever it lies
    beyond the facet; every point taken in lies in P, so once no facet is
    beaten the hull is P.
    """
    answers: dict[tuple[int, ...], Pair] = {}

    def ask(u: Sequence[int]) -> Pair:
        g = math.gcd(*u)
        u = tuple(c // g for c in u)
        if u not in answers:
            d, t = support(u)
            g = math.gcd(*d, t)
            answers[u] = tuple(c // g for c in d), t // g
        return answers[u]

    found = {ask([s * (j == i) for j in range(dim)]): None for i in range(dim) for s in (1, -1)}
    normals, flat = _affine_normals(found), None
    while normals and len(normals) != flat:
        for normal in normals:
            for sign in (1, -1):
                found.setdefault(ask([sign * a for a in normal]))
        flat, normals = len(normals), _affine_normals(found)
    if len(normals) == dim:
        return Polytope(dim, tuple(map(_rational, found)))
    hull, confirmed = _Hull(list(found)), set()
    while True:
        for f in hull.facets() - confirmed:
            normal = [0] * dim
            for a, c in zip(f.normal, hull.axes):
                normal[c] = a
            d, t = ask(normal)
            if sum(map(mul, normal, d)) * hull.scale > f.offset * t:
                hull.add((d, t))
                break
            confirmed.add(f)
        else:
            return hull.polytope()


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
    d, t = _homogeneous(q)  # x = d / t, and y below is t times x in the facets' coordinates
    if p.facets is not None and all(f.offset >= 0 for f in p.facets):
        facets, y = p.facets, d  # P holds the origin, so K = P
    else:
        points = list(dict.fromkeys([*map(_homogeneous, p.vertices), ((0,) * p.dim, 1)]))
        # K holds 0, so its affine hull is the subspace these normals cut out
        if any(sum(map(mul, n, d)) for n in _affine_normals(points)):
            return None
        hull = _Hull(points)
        facets = hull.facets()
        y = [hull.scale * d[c] for c in hull.axes]
    top, bottom = 0, 1  # the largest a.y / b so far, compared by cross-multiplying
    for f in facets:
        ay = sum(map(mul, f.normal, y))
        if f.offset:
            if ay * bottom > top * f.offset:
                top, bottom = ay, f.offset
        elif ay > 0:
            return None
    return Fraction(top, bottom * t)


def polytope_distance_inf(p: Polytope, x: Sequence) -> Fraction:
    """Exact max-norm distance from x to the polytope, from the facets of P + [-1, 1]^d.

    P + t*[-1, 1]^d has the same normals for every t > 0, and a facet a.y <= b
    of P + [-1, 1]^d has b = h_P(a) + |a|_1, so x lies in it iff a.x <= b + (t-1)|a|_1.
    The distance is the least such t >= 0, so 0 for x in P, flat or not.
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
    # With M = ints / scale and each vertex y / vscale, x'Mx = y'(ints)y / (vscale^2 scale).
    ints, scale = _integer_rows(m)
    ys, vscale = _integer_rows(p.vertices)
    top = max(sum(a * sum(map(mul, row, y)) for a, row in zip(y, ints)) for y in ys)
    circum = Fraction(top, vscale * vscale * scale)
    # a'M^-1 a = scale * a.x for ints.x = a; one elimination of
    # [ints | every normal] leaves det * x in the columns.
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


def parse_rational(text: str) -> Fraction:
    token = text.strip()
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def polytope_to_dict(p: Polytope) -> dict:
    out: dict = {
        "dim": p.dim,
        "vertices": [[str(c) for c in v] for v in p.vertices],
    }
    if p.facets is not None:
        out["facets"] = [
            {"a": [str(c) for c in f.normal], "b": str(f.offset)} for f in p.facets
        ]
    return out


def polytope_from_json(text: str) -> Polytope:
    """Rebuild a polytope from its JSON form; vertices are the authoritative payload.

    Facets are recomputed rather than trusted, so the round trip is canonical.
    """
    data = json.loads(text)  # outside the try: its error keeps its own message
    try:
        dim, rows = data["dim"], data["vertices"]
        # type(dim), not isinstance, which would take a JSON true for the integer 1
        if type(dim) is not int or not isinstance(rows, list) or not all(
                isinstance(v, list) and all(isinstance(c, str) for c in v) for v in rows):
            raise TypeError("dim must be an integer and vertices lists of strings")
        vertices = [tuple(parse_rational(c) for c in v) for v in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polytope JSON: {exc}") from None
    return convex_hull(vertices, dim=dim)
