from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import CROSS_VERTICES, HEX_VELOCITIES, HEX_VERTICES, random_rational_points
from oracles import (
    anisotropy_brute,
    distance_inf_brute,
    facets_brute,
    gauge_caratheodory,
    lattice_rank_and_index_brute,
    member_caratheodory,
)
from velo import (
    Facet,
    Polytope,
    affine_dimension,
    anisotropy,
    contains_polytope,
    convex_hull,
    dimensionality,
    gauge_norm,
    hull_ring_2d,
    origin_in_hull_interior,
    polytope_distance_inf,
    polytope_from_json,
    polytope_to_dict,
)

F = Fraction


@pytest.fixture(scope="module")
def hexagon():
    return convex_hull(HEX_VELOCITIES)


@pytest.fixture(scope="module")
def cross():
    return convex_hull(CROSS_VERTICES)


# ---------------------------------------------------------------------------
# convex hulls


def test_hull_single_point():
    p = convex_hull([(F(0),)])
    assert p.vertices == ((F(0),),)
    assert p.facets is None


def test_hull_hexagon(hexagon):
    assert hexagon.vertices == HEX_VERTICES
    assert hexagon.facets == (
        Facet((-2, 0), 1),
        Facet((-2, 2), 1),
        Facet((0, -2), 1),
        Facet((0, 2), 1),
        Facet((2, -2), 1),
        Facet((2, 0), 1),
    )


def test_hull_segment_1d():
    p = convex_hull([(F(2),), (F(-2),), (F(0),)])
    assert p.vertices == ((F(-2),), (F(2),))
    assert p.facets == (Facet((-1,), 2), Facet((1,), 2))


def test_hull_empty_needs_dim():
    with pytest.raises(ValueError):
        convex_hull([])
    p = convex_hull([], dim=2)
    assert p.is_empty and p.dim == 2
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        convex_hull([], dim=0)


def test_hull_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        convex_hull([(F(0),), (F(0), F(1))])
    with pytest.raises(ValueError):
        convex_hull([(F(0), F(1))], dim=3)


def test_hull_collinear_2d_is_segment():
    p = convex_hull([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    assert p.vertices == ((F(0), F(0)), (F(2), F(2)))
    assert p.facets is None  # not full-dimensional


def test_hull_octahedron():
    pts = [(F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(1), F(0)),
           (F(0), F(-1), F(0)), (F(0), F(0), F(1)), (F(0), F(0), F(-1)),
           (F(0), F(0), F(0))]
    p = convex_hull(pts)
    assert len(p.vertices) == 6
    assert p.facets is not None and len(p.facets) == 8
    assert all(abs(f.normal[0]) == 1 and abs(f.normal[1]) == 1 and abs(f.normal[2]) == 1
               and f.offset == 1 for f in p.facets)


def test_hull_cube_with_interior_point():
    pts = [tuple(F(c) for c in (x, y, z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = convex_hull(pts + [(F(1, 2), F(1, 2), F(1, 2))])
    assert len(p.vertices) == 8
    assert p.facets is not None and len(p.facets) == 6


def test_hull_drops_boundary_points_placed_before_a_vertex():
    # Points near the origin pull the centroid there, so (11, 0, ...) is placed
    # before the vertex at the origin, which then leaves it inside an edge.
    for d in (2, 3):
        corners = [tuple(F(12 * (i == j)) for j in range(d)) for i in range(d)]
        near = [tuple(F(c) for c in q) for q in product((1, 2), repeat=d)]
        pts = corners + [(F(0),) * d, (F(11),) + (F(0),) * (d - 1)] + near
        p = convex_hull(pts)
        assert p.vertices == tuple(sorted(corners + [(F(0),) * d]))
        assert [tuple(f) for f in p.facets] == facets_brute(pts)


def test_hull_idempotent():
    rng = random.Random(21)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        p = convex_hull(random_rational_points(rng, d, rng.randint(1, 8)))
        again = convex_hull(p.vertices)
        assert again == p


def test_hull_extremes_match_caratheodory_oracle():
    rng = random.Random(22)
    for _ in range(15):
        d = rng.choice([2, 3])
        pts = random_rational_points(rng, d, rng.randint(2, 6), max_num=6, max_den=4)
        p = convex_hull(pts)
        unique = sorted(set(pts))
        expected = [
            q for i, q in enumerate(unique)
            if not member_caratheodory(q, unique[:i] + unique[i + 1:])
        ]
        assert list(p.vertices) == expected


def test_hull_ring_2d(hexagon):
    ring = hull_ring_2d(hexagon)
    assert set(ring) == set(HEX_VERTICES)
    assert ring[0] == min(HEX_VERTICES)
    # counterclockwise: positive cross products all the way around
    for i in range(len(ring)):
        o, a, b = ring[i - 1], ring[i], ring[(i + 1) % len(ring)]
        assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0


def test_hull_ring_2d_rejects_3d():
    cube = convex_hull([tuple(F(c) for c in v) for v in product((0, 1), repeat=3)])
    with pytest.raises(ValueError, match="only defined for 2-d"):
        hull_ring_2d(cube)


def _ccw(ring):
    return all(
        (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0
        for o, a, b in zip(ring, ring[1:] + ring[:1], ring[2:] + ring[:2])
    )


_small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


# the cross-polytope of e1, 2 e2, e3, e4 and their negatives
_CROSS_4 = [tuple(F(s * a * (i == j)) for j in range(4)) for i, a in enumerate((1, 2, 1, 1))
            for s in (1, -1)]


@st.composite
def point_sets(draw):
    """1-9 small rational points in d = 1..4, duplicates allowed.

    Half the draws lie in a random affine subspace of lower dimension, as
    integer combinations of a few rational directions from a base point.
    """
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    vec = st.lists(_small_rationals, min_size=d, max_size=d)
    if draw(st.booleans()):
        base = draw(vec)
        dirs = draw(st.lists(vec, max_size=d - 1))
        coeffs = st.lists(st.integers(-2, 2), min_size=len(dirs), max_size=len(dirs))
        return [
            tuple(b + sum((c * v[i] for c, v in zip(cs, dirs)), F(0)) for i, b in enumerate(base))
            for cs in draw(st.lists(coeffs, min_size=n, max_size=n))
        ]
    return [tuple(p) for p in draw(st.lists(vec, min_size=n, max_size=n))]


@given(point_sets())
@example([(F(-1), F(0)), (F(1), F(0)), (F(0), F(1))])  # the origin on a facet
@example([(F(-3), F(0)), (F(3), F(0)), (F(2), F(0)), (F(0), F(1))])  # the 3 farthest are collinear
@example([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
# The midpoint of e1 and 2 e2 is farther from the centroid than e1, so it joins
# the boundary before e1, which then leaves it inside an edge of the 4-d
# cross-polytope: on four facets whose normals have rank 3, so counting them
# is not enough to call it a vertex.
@example(_CROSS_4 + [(F(1, 2), F(1), F(0), F(0))])
# the same edge at the base of a pyramid in d = 5: five normals, of rank 4
@example([v + (F(0),) for v in _CROSS_4 + [(F(1, 2), F(1), F(0), F(0))]]
         + [(F(0), F(0), F(0), F(0), F(1))])
def test_hull_matches_brute_force_oracles(pts):
    d = len(pts[0])
    p = convex_hull(pts)
    unique = sorted(set(pts))
    assert list(p.vertices) == [
        q for i, q in enumerate(unique) if not member_caratheodory(q, unique[:i] + unique[i + 1:])
    ]
    expected = facets_brute(pts)
    assert (None if p.facets is None else [tuple(f) for f in p.facets]) == expected
    assert origin_in_hull_interior(pts, d) == (
        expected is not None and all(b > 0 for _, b in expected)
    )
    if d == 2 and expected is not None:
        ring = list(hull_ring_2d(p))
        assert ring[0] == p.vertices[0] and sorted(ring) == list(p.vertices)
        assert _ccw(ring)


# ---------------------------------------------------------------------------
# membership and containment


def _member(p, x):
    """Membership of x in p as a one-point containment, the way check-morphism asks it."""
    return contains_polytope(p, Polytope(p.dim, (x,)))


def test_contains_point_hexagon(hexagon):
    assert _member(hexagon, (F(0), F(0)))
    assert _member(hexagon, (F(1, 2), F(1, 2)))  # a vertex
    assert not _member(hexagon, (F(1), F(0)))


def test_membership_routes_agree():
    rng = random.Random(23)
    for _ in range(10):
        d = rng.choice([2, 3])
        p = convex_hull(random_rational_points(rng, d, rng.randint(3, 6), max_num=6, max_den=3))
        if p.facets is None:
            continue
        for q in random_rational_points(rng, d, 12, max_num=8, max_den=3):
            inside = _member(p, q)
            assert (polytope_distance_inf(p, q) == 0) == inside
            assert member_caratheodory(q, p.vertices) == inside


def test_contains_polytope(hexagon, cross):
    assert contains_polytope(hexagon, hexagon)
    doubled_cross = convex_hull([tuple(2 * c for c in v) for v in CROSS_VERTICES])
    assert contains_polytope(doubled_cross, hexagon)
    assert not contains_polytope(hexagon, cross)  # (1,0) is outside the hexagon
    assert contains_polytope(cross, hexagon)


def test_contains_polytope_empty_cases():
    empty = convex_hull([], dim=2)
    point = convex_hull([(F(0), F(0))])
    assert contains_polytope(point, empty)
    assert not contains_polytope(empty, point)
    with pytest.raises(ValueError):
        contains_polytope(point, convex_hull([(F(0),)]))


# ---------------------------------------------------------------------------
# gauge


def test_gauge_zero(hexagon):
    assert gauge_norm(hexagon, (F(0), F(0))) == 0


def test_gauge_and_distance_of_the_empty_polytope():
    empty = convex_hull([], dim=2)
    with pytest.raises(ValueError, match="gauge of the empty polytope"):
        gauge_norm(empty, (F(1), F(0)))
    with pytest.raises(ValueError, match="distance to the empty polytope"):
        polytope_distance_inf(empty, (F(1), F(0)))


def test_gauge_hexagon_values(hexagon):
    assert gauge_norm(hexagon, (F(1), F(0))) == 2
    assert gauge_norm(hexagon, (F(2), F(1))) == 4
    assert gauge_norm(hexagon, (F(-1), F(-1))) == 2


def test_gauge_cross_diagonal(cross):
    assert gauge_norm(cross, (F(1), F(1))) == 2


def test_gauge_outside_cone_is_infinite():
    p = convex_hull([(F(1), F(0)), (F(2), F(0))])
    assert gauge_norm(p, (F(0), F(1))) is None
    assert gauge_norm(p, (F(-1), F(0))) is None
    assert gauge_norm(p, (F(3), F(0))) == F(3, 2)


def test_gauge_properties(hexagon, cross):
    rng = random.Random(31)
    for p in (hexagon, cross):
        for _ in range(15):
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
            y = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
            gx, gy = gauge_norm(p, x), gauge_norm(p, y)
            alpha = F(rng.randint(0, 5), rng.randint(1, 3))
            scaled = gauge_norm(p, tuple(alpha * c for c in x))
            assert scaled == alpha * gx
            total = gauge_norm(p, tuple(a + b for a, b in zip(x, y)))
            assert total <= gx + gy
            assert (gx <= 1) == _member(p, x)


def test_gauge_matches_caratheodory_oracle():
    rng = random.Random(32)
    for _ in range(10):
        d = rng.choice([1, 2, 3])
        p = convex_hull(random_rational_points(rng, d, rng.randint(2, 6), max_num=6, max_den=3))
        for _ in range(6):
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            assert gauge_norm(p, x) == gauge_caratheodory(x, p.vertices)


# ---------------------------------------------------------------------------
# distance


def test_distance_inside_is_zero(hexagon):
    assert polytope_distance_inf(hexagon, (F(0), F(0))) == 0
    assert polytope_distance_inf(hexagon, (F(1, 2), F(1, 2))) == 0


def test_distance_outside_values(hexagon, cross):
    assert polytope_distance_inf(cross, (F(2), F(0))) == 1
    assert polytope_distance_inf(hexagon, (F(1), F(0))) == F(1, 2)


# ---------------------------------------------------------------------------
# the facet-based queries against references that share no code with them


@st.composite
def polytope_queries(draw):
    """Up to six points from ``point_sets``, a query point and a second point set.

    Half the sets are moved so that their affine hull passes through the
    origin, at the point 2 p_0 - p_last of the hull.  The query is a free
    point (for a flat set, almost always outside its span), a multiple of a
    point of the set (inside the linear span) or a midpoint of two of them
    (inside the set).  The second set holds midpoints of the first and,
    sometimes, the query.
    """
    pts = draw(point_sets())[:6]  # the references enumerate subsets of the points
    if draw(st.booleans()):
        shift = [2 * a - b for a, b in zip(pts[0], pts[-1])]
        pts = [tuple(c - s for c, s in zip(p, shift)) for p in pts]
    vec = st.lists(_small_rationals, min_size=len(pts[0]), max_size=len(pts[0])).map(tuple)
    a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    t = draw(st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(3, 2), F(3)]))
    x = draw(st.one_of(
        vec,
        st.just(tuple(t * c for c in a)),
        st.just(tuple((c + e) / 2 for c, e in zip(a, b))),
    ))
    pair = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    inner = [tuple((c + e) / 2 for c, e in zip(u, w)) for u, w in pairs]
    if draw(st.booleans()):
        inner.append(x)
    return pts, x, inner


@given(polytope_queries())
@example(([(F(1), F(0)), (F(2), F(0))], (F(3), F(0)), [(F(3, 2), F(0))]))  # 0 off the affine hull
@example(([(F(0), F(0)), (F(1), F(0))], (F(1), F(1)), [(F(1, 2), F(0))]))  # x off the span
@example(([(F(-1),), (F(1),)], (F(3, 2),), [(F(3, 2),)]))  # x outside an interval
@example(([(F(0), F(0)), (F(2), F(0)), (F(0), F(2))], (F(1), F(1)), [(F(1), F(0))]))  # on a facet
@example(([(F(0), F(0)), (F(2), F(0)), (F(0), F(2))], (F(1), F(101, 100)), [(F(1), F(0))]))  # just out
@example(([(F(0), F(0)), (F(2), F(0))], (F(1), F(0)), [(F(1, 2), F(0))]))  # inside a flat P
def test_facet_queries_match_references(query):
    pts, x, inner_pts = query
    p, inner = convex_hull(pts), convex_hull(inner_pts)
    assert _member(p, x) == member_caratheodory(x, p.vertices)
    assert contains_polytope(p, inner) == all(member_caratheodory(v, p.vertices) for v in inner_pts)
    assert contains_polytope(inner, p) == all(member_caratheodory(v, inner.vertices) for v in pts)
    assert gauge_norm(p, x) == gauge_caratheodory(x, p.vertices)
    assert polytope_distance_inf(p, x) == distance_inf_brute(x, p.vertices)


# ---------------------------------------------------------------------------
# dimension, interior


def test_dimensionality(hexagon):
    assert dimensionality(hexagon) == (2, True)
    assert dimensionality(convex_hull([(F(0),)])) == (0, False)
    assert dimensionality(convex_hull([(F(-2),), (F(2),)])) == (1, True)
    segment = convex_hull([(F(-1), F(0)), (F(1), F(0))])
    assert dimensionality(segment) == (1, False)
    with pytest.raises(ValueError):
        dimensionality(convex_hull([], dim=1))


def test_origin_interior_direct():
    assert origin_in_hull_interior(HEX_VERTICES, 2)
    assert not origin_in_hull_interior([(F(1), F(1)), (F(2), F(1)), (F(1), F(2))], 2)
    assert not origin_in_hull_interior([(F(-1), F(0)), (F(1), F(0))], 2)
    assert not origin_in_hull_interior([], 2)


@st.composite
def rational_sets(draw):
    """Up to 6 points with d <= 4 and denominators 1..6: scattered, or p_0 plus
    combinations of k < d directions, a flat set."""
    d = draw(st.integers(1, 4))
    q = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    vec = st.tuples(*[q] * d)
    if draw(st.booleans()):
        return draw(st.lists(vec, min_size=1, max_size=6))
    base, dirs = draw(vec), draw(st.lists(vec, max_size=d - 1))
    coeffs = draw(st.lists(st.lists(q, min_size=len(dirs), max_size=len(dirs)), max_size=5))
    return [base] + [tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base))
                     for cs in coeffs]


@example(points=[])
@example(points=[(F(3), F(4))])
@example(points=[(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
@example(points=list(HEX_VERTICES))
# (1/2, 1/3), (1, 2/3) and (3/2, 1) share D = (3, 2) and differ only in T
@example(points=[(F(1, 2), F(1, 3)), (F(1), F(2, 3)), (F(3, 2), F(1))])
@example(points=[(F(1, 3), F(0), F(1, 2)), (F(1, 3), F(0), F(1, 2)), (F(0), F(1, 2), F(1, 4))])
@example(points=[(F(1, 6), F(-1, 4)), (F(1, 6), F(-1, 4))])
@given(points=rational_sets())
def test_affine_dimension(points):
    # the rank of the differences p_i - p_0, scaled by their common denominator
    if not points:
        assert affine_dimension(points) == -1
        return
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    scale = math.lcm(*(c.denominator for row in diffs for c in row))
    rows = [[int(c * scale) for c in row] for row in diffs]
    assert affine_dimension(points) == lattice_rank_and_index_brute(rows, len(points[0]))[0]


# ---------------------------------------------------------------------------
# anisotropy


def test_anisotropy_segment():
    p = convex_hull([(F(-2),), (F(2),)])
    an = anisotropy(p)
    assert (an.inradius_sq, an.circumradius_sq, an.isotropic) == (F(4), F(4), True)


def test_anisotropy_hexagon(hexagon):
    # nearest facet is x - y <= 1/2 at squared distance 1/8; farthest vertex (1/2,1/2)
    an = anisotropy(hexagon)
    assert an.inradius_sq == F(1, 8)
    assert an.circumradius_sq == F(1, 2)
    assert not an.isotropic


def test_anisotropy_cross(cross):
    an = anisotropy(cross)
    assert (an.inradius_sq, an.circumradius_sq, an.isotropic) == (F(1, 2), F(1), False)


def test_anisotropy_with_metric(hexagon):
    an = anisotropy(hexagon, [[F(2), F(0)], [F(0), F(2)]])
    assert an.inradius_sq == F(1, 4)
    assert an.circumradius_sq == F(1)
    assert not an.isotropic


@st.composite
def origin_polytopes(draw):
    """2-7 small rational points in d = 1..3, moved by their centroid, which then
    lies inside their hull, and a metric: None for the identity, or
    (L L' + I) / q for an integer lower-triangular L and q = 1..3."""
    d = draw(st.integers(1, 3))
    vec = st.lists(_small_rationals, min_size=d, max_size=d)
    pts = draw(st.lists(vec, min_size=d + 1, max_size=7))
    centroid = [sum(col) / len(pts) for col in zip(*pts)]
    pts = [tuple(c - m for c, m in zip(p, centroid)) for p in pts]
    if draw(st.booleans()):
        return pts, None
    low = [[draw(st.integers(-2, 2)) if j <= i else 0 for j in range(d)] for i in range(d)]
    q = draw(st.integers(1, 3))
    return pts, [[F(sum(low[i][k] * low[j][k] for k in range(d)) + (i == j), q) for j in range(d)]
                 for i in range(d)]


@given(origin_polytopes())
def test_anisotropy_matches_brute_force(case):
    pts, metric = case
    p = convex_hull(pts)
    assume(p.facets is not None)  # full-dimensional
    d = len(pts[0])
    identity = [[F(i == j) for j in range(d)] for i in range(d)]
    inrad, circum = anisotropy_brute(pts, metric or identity)
    assert anisotropy(p, metric) == (inrad, circum, inrad == circum)


def test_anisotropy_errors(hexagon):
    shifted = convex_hull([(F(1), F(1)), (F(2), F(1)), (F(1), F(2)), (F(2), F(2))])
    with pytest.raises(ValueError):
        anisotropy(shifted)  # origin not interior
    flat = convex_hull(
        [(F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(-1), F(0))]
    )
    assert flat.facets is None
    with pytest.raises(ValueError):
        anisotropy(flat)  # facets unavailable
    with pytest.raises(ValueError):
        anisotropy(hexagon, [[F(1), F(0)], [F(1), F(1)]])  # not symmetric
    with pytest.raises(ValueError):
        anisotropy(hexagon, [[F(1), F(0)], [F(0), F(-1)]])  # not positive definite
    with pytest.raises(ValueError):
        anisotropy(convex_hull([], dim=2))


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip(hexagon):
    text = json.dumps(polytope_to_dict(hexagon), indent=2)
    back = polytope_from_json(text)
    assert back == hexagon
    assert json.dumps(polytope_to_dict(back), indent=2) == text


def test_json_redundant_vertices_rehulled():
    text = '{"dim": 1, "vertices": [["0"], ["2"], ["1"]]}'
    p = polytope_from_json(text)
    assert p.vertices == ((F(0),), (F(2),))


def test_json_malformed():
    with pytest.raises(ValueError):
        polytope_from_json('{"vertices": [["1"]]}')
    with pytest.raises(ValueError):
        polytope_from_json('{"dim": 1, "vertices": [["1/0"]]}')
    # entries that are not strings, vertices that are not lists of lists, and a
    # dim that is not a JSON integer
    for text in (
        '{"dim": 1, "vertices": [[1], [-1]]}',
        '{"dim": 1, "vertices": [[null]]}',
        '{"dim": 2, "vertices": ["12", "34"]}',
        '{"dim": 2, "vertices": {"0": ["1", "2"]}}',
        '{"dim": 1.9, "vertices": [["1"], ["-1"]]}',
        '{"dim": "1", "vertices": [["1"], ["-1"]]}',
        '{"dim": true, "vertices": [["1"], ["-1"]]}',
        '[{"dim": 1}]',
    ):
        with pytest.raises(ValueError, match="^malformed polytope JSON: "):
            polytope_from_json(text)


def test_polytope_equality_and_determinism():
    a = convex_hull(HEX_VELOCITIES)
    b = convex_hull(list(reversed(HEX_VELOCITIES)))
    assert a == b
    assert isinstance(a, Polytope)


def test_hull_and_membership_4d_cross_polytope():
    pts = []
    for axis in range(4):
        for sign in (1, -1):
            pts.append(tuple(F(sign) if i == axis else F(0) for i in range(4)))
    p = convex_hull(pts)
    assert len(p.vertices) == 8
    assert p.facets is not None and len(p.facets) == 16
    rng = random.Random(24)
    for _ in range(10):
        q = tuple(F(rng.randint(-3, 3), 2) for _ in range(4))
        assert (polytope_distance_inf(p, q) == 0) == _member(p, q)
    assert _member(p, (F(1, 4),) * 4)
    assert not _member(p, (F(1, 2),) * 4)
