from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import HEX_VELOCITIES, random_rational_points
from velo import (
    DisplacementGraph,
    Edge,
    GraphAnalysis,
    Polytope,
    anisotropy,
    convex_hull,
    enumerate_cycles,
    parse_dgf,
    realize,
    serialize_dgf,
    strongly_connected_components,
    velocity_polytope,
)

F = Fraction


def test_realize_origin_point():
    g = realize(convex_hull([(F(0),)]))
    assert g.vertices == ("u1",)
    assert g.edges == (Edge(0, 0, (0,)),)


def test_realize_pm2_segment():
    g = realize(convex_hull([(F(-2),), (F(2),)]))
    assert g.vertices == ("u1",)
    assert g.edges == (Edge(0, 0, (-2,)), Edge(0, 0, (2,)))


def test_realize_thirds_triangle():
    p = convex_hull([(F(1, 3), F(0)), (F(0), F(1, 3)), (F(-1, 3), F(-1, 3))])
    g = realize(p)
    assert g.vertices == ("u1", "u2", "u3")
    zero_edges = [e for e in g.edges if e.displacement == (0, 0)]
    closing = [e for e in g.edges if e.source == 2 and e.target == 0]
    assert len(zero_edges) == 2
    assert sorted(e.displacement for e in closing) == [(-1, -1), (0, 1), (1, 0)]
    assert velocity_polytope(g) == p


def test_realize_hexagon():
    p = convex_hull(HEX_VELOCITIES)
    g = realize(p)
    assert len(g.vertices) == 2  # lcm of the halves
    assert len(g.edges) == 7  # one zero edge plus six closing edges
    assert GraphAnalysis(realize(p)).polytope.vertices == convex_hull(p.vertices, dim=p.dim).vertices


def test_realized_lcm_27720_ring_survives_a_dgf_round_trip():
    # denominators 8, 9, 5, 7 and 11: a ring of 27,720 vertices and 27,719 zero edges
    p = convex_hull([(F(1, 8), F(0), F(0)), (F(0), F(1, 9), F(0)), (F(0), F(0), F(1, 5)),
                     (F(-1, 7), F(-1, 11), F(-1))])
    g = realize(p)
    assert len(g.vertices) == 27_720
    assert DisplacementGraph(g.dim, g.vertices, g.edges) == g  # realize skips its checks
    assert parse_dgf(serialize_dgf(g)) == g


def test_realize_structure_random():
    rng = random.Random(50)
    for _ in range(20):
        d = rng.choice([1, 2, 3])
        p = convex_hull(random_rational_points(rng, d, rng.randint(1, 5), max_num=8, max_den=6))
        g = realize(p)
        assert DisplacementGraph(g.dim, g.vertices, g.edges) == g
        gamma = len(g.vertices)
        assert strongly_connected_components(g) == (tuple(range(gamma)),)
        cycles = enumerate_cycles(g)
        assert len(cycles) == len(p.vertices)
        assert all(len(c) == gamma for c in cycles)


def test_roundtrip_random():
    rng = random.Random(51)
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        p = convex_hull(random_rational_points(rng, d, rng.randint(1, 6)))
        assert GraphAnalysis(realize(p)).polytope.vertices == convex_hull(p.vertices, dim=p.dim).vertices
        assert velocity_polytope(realize(p)).vertices == p.vertices


def test_roundtrip_integer_point():
    p = convex_hull([(F(3), F(-1))])
    g = realize(p)
    assert len(g.vertices) == 1
    assert GraphAnalysis(realize(p)).polytope.vertices == convex_hull(p.vertices, dim=p.dim).vertices


def test_realize_takes_a_hand_built_polytope_as_the_hull_of_its_vertices():
    # a duplicate and an interior point are not hulled away: each becomes one
    # more closing edge, whose velocity lies inside the triangle, and the
    # interior point's denominators 12 and 45 lengthen the ring to lcm 180
    corners = [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(-1, 4), F(-1, 5))]
    p = Polytope(2, (corners[0], (F(1, 12), F(2, 45)), *corners, corners[1]))
    g = realize(p)
    assert len(g.vertices) == 180 and len(g.edges) == 179 + 6
    assert velocity_polytope(g) == convex_hull(p.vertices) == convex_hull(corners)
    assert GraphAnalysis(realize(p)).polytope.vertices == convex_hull(p.vertices, dim=p.dim).vertices


def test_realize_empty_rejected():
    with pytest.raises(ValueError):
        realize(convex_hull([], dim=1))


def test_anisotropy_composes_through_realization():
    p = convex_hull(HEX_VELOCITIES)
    back = velocity_polytope(realize(p))
    assert anisotropy(back) == anisotropy(p)
