from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import CROSS_VERTICES, HEX_VERTICES, random_strongly_connected_graph, subdivide
from oracles import brute_cycles
from velo import (
    Edge,
    GraphAnalysis,
    NotStronglyConnectedError,
    VERDICT_DISCONNECTED,
    VERDICT_QUOTIENT,
    VERDICT_STRONG,
    DisplacementGraph,
    bfs_distance,
    connectivity_report,
    convex_hull,
    lattice_rank_and_index,
    origin_in_hull_interior,
    parse_dgf,
    strongly_connected_components,
    unroll,
    velocity_polytope,
    velocity_set,
)

F = Fraction


# ---------------------------------------------------------------------------
# velocity polytopes


def test_velocity_polytope_honeycomb(honeycomb):
    assert velocity_polytope(honeycomb).vertices == HEX_VERTICES


def test_velocity_polytope_square(square):
    assert velocity_polytope(square).vertices == CROSS_VERTICES


def test_velocity_polytope_constant_loop():
    g = parse_dgf("dim 1\nvertex A\nedge A A 0")
    assert velocity_polytope(g).vertices == ((F(0),),)


def test_velocity_polytope_requires_connectivity():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 0")
    with pytest.raises(NotStronglyConnectedError) as exc:
        velocity_polytope(g)
    assert "velocity_set" in str(exc.value)


def test_velocity_polytope_no_cycles_is_empty():
    g = DisplacementGraph(2, ("A",), ())
    p = velocity_polytope(g)
    assert p.is_empty and p.dim == 2


def test_pm2_polytope(pm2):
    assert velocity_polytope(pm2).vertices == ((F(-2),), (F(2),))


# ---------------------------------------------------------------------------
# velocity sets


def test_velocity_set_single_component(honeycomb):
    vset = velocity_set(honeycomb)
    assert len(vset.components) == 1
    assert vset.components[0][0] == 0
    assert vset.components[0][1] == velocity_polytope(honeycomb)


def test_velocity_set_disjoint_union():
    text = """\
dim 2
vertex S
vertex A
vertex B
edge S S 1 0
edge S S -1 0
edge S S 0 1
edge S S 0 -1
edge A B 0 0
edge A B 0 1
edge A B -1 0
edge B A 0 0
edge B A 0 -1
edge B A 1 0
"""
    g = parse_dgf(text)
    vset = velocity_set(g)
    assert [cid for cid, _ in vset.components] == [0, 1]
    assert vset.components[0][1].vertices == CROSS_VERTICES
    assert vset.components[1][1].vertices == HEX_VERTICES


def test_velocity_set_no_cycles():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 0")
    assert velocity_set(g).components == ()


# ---------------------------------------------------------------------------
# connectivity report


def test_connectivity_honeycomb(honeycomb):
    rep = connectivity_report(honeycomb)
    assert rep.verdict == VERDICT_STRONG
    assert rep.scc_count == 1
    assert rep.scc_membership == (0, 0)
    assert rep.cycle_lattice_rank == 2
    assert rep.lattice_index == 1
    assert rep.cone_full


def test_connectivity_pm2(pm2):
    rep = connectivity_report(pm2)
    assert rep.verdict == VERDICT_QUOTIENT
    assert rep.cycle_lattice_rank == 1
    assert rep.lattice_index == 2  # displacements generate 2Z, not Z
    assert rep.cone_full


def test_connectivity_edgeless():
    g = DisplacementGraph(1, ("A", "B"), ())
    rep = connectivity_report(g)
    assert rep.verdict == VERDICT_DISCONNECTED
    assert rep.scc_count == 2
    assert rep.scc_membership == (0, 1)
    assert rep.cycle_lattice_rank == 0
    assert rep.lattice_index is None
    assert not rep.cone_full


def test_connectivity_quotient_only_by_cone():
    # displacements generate Z but only in the +1 direction: cone is not full
    g = parse_dgf("dim 1\nvertex A\nedge A A 1")
    rep = connectivity_report(g)
    assert rep.verdict == VERDICT_QUOTIENT
    assert rep.cycle_lattice_rank == 1
    assert rep.lattice_index == 1
    assert not rep.cone_full


def test_connectivity_verdict_matches_reachability_oracle():
    # the verdict claims the unrolling is strongly connected iff every unit
    # translate of the base vertex is reachable; verify on random graphs
    rng = random.Random(555)
    for _ in range(40):
        g = random_strongly_connected_graph(rng, max_vertices=3, max_dim=2, max_disp=1)
        rep = connectivity_report(g)
        assert rep.scc_count == 1
        patch = unroll(g, 15)
        origin = (0, (0,) * g.dim)
        reach_all = True
        for axis in range(g.dim):
            for sign in (1, -1):
                target = tuple(sign if i == axis else 0 for i in range(g.dim))
                if bfs_distance(patch, origin, (0, target)) is None:
                    reach_all = False
        assert (rep.verdict == VERDICT_STRONG) == reach_all


def test_functoriality_adding_edges_grows_polytope():
    from velo import contains_polytope

    rng = random.Random(556)
    for _ in range(15):
        g = random_strongly_connected_graph(rng)
        extra = tuple(
            Edge(
                rng.randrange(len(g.vertices)),
                rng.randrange(len(g.vertices)),
                tuple(rng.randint(-2, 2) for _ in range(g.dim)),
            )
            for _ in range(rng.randint(1, 3))
        )
        bigger = DisplacementGraph(g.dim, g.vertices, g.edges + extra)
        assert contains_polytope(velocity_polytope(bigger), velocity_polytope(g))


# ---------------------------------------------------------------------------
# the analysis against brute-force cycles


@st.composite
def small_graphs(draw):
    """At most 4 vertices and 8 edges in d = 1..3; any component structure, cycles or none.

    Half the draws are undirected (each edge paired with its reverse), which
    makes strongly connected quotients and full cones common.
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edge = st.builds(Edge, vertex, vertex, st.tuples(*[st.integers(-2, 2)] * dim))
    if draw(st.booleans()):
        half = draw(st.lists(edge, max_size=4))
        edges = half + [Edge(e.target, e.source, tuple(-x for x in e.displacement)) for e in half]
    else:
        edges = draw(st.lists(edge, max_size=8))
    return DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), tuple(edges))


@st.composite
def packed_graphs(draw):
    """At most 4 vertices and 8 edges with displacements up to 40 in size,
    up to three edges cut into chains, so core edges stand for up to 4 edges."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edge = st.builds(Edge, vertex, vertex, st.tuples(*[st.integers(-40, 40)] * dim))
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    g = DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), tuple(edges))
    picks = draw(st.lists(st.integers(0, len(edges) - 1), max_size=3, unique=True))
    return subdivide(g, {eid: draw(st.integers(1, 3)) for eid in picks})


# each has a cycle with a digit at +-(B - 1)/2, the largest the packing allows
@given(packed_graphs())
@example(parse_dgf("dim 1\nvertex A\nedge A A -5"))  # B = 11, displacement digit -5
@example(parse_dgf("dim 1\nvertex A\nedge A A 5"))  # B = 11, displacement digit 5
@example(parse_dgf("dim 2\nvertex A\nedge A A -5 5"))  # both signs in one code
@example(parse_dgf("dim 1\nvertex A\nvertex B\nedge A B -3\nedge B A -2"))  # -5 from two
@example(subdivide(parse_dgf("dim 1\nvertex A\nedge A A 0"), {0: 2}))  # length digit 3
def test_cycle_pairs_match_brute_force(g):
    expected = Counter(
        (tuple(map(sum, zip(*(g.edges[eid].displacement for eid in c)))), len(c))
        for c in brute_cycles(g)
    )
    assert GraphAnalysis(g).cycle_pairs == expected


@given(small_graphs())
def test_analysis_matches_brute_force_cycles(g):
    cycles = brute_cycles(g)
    sccs = strongly_connected_components(g)
    scc_of = {v: i for i, comp in enumerate(sccs) for v in comp}

    def displacement(c):
        return tuple(sum(g.edges[e].displacement[j] for e in c) for j in range(g.dim))

    def velocity(c):
        return tuple(F(x, len(c)) for x in displacement(c))

    # the connectivity rule over every distinct cycle displacement
    displacements = sorted({displacement(c) for c in cycles})
    rank, index = lattice_rank_and_index(displacements, g.dim)
    cone_full = bool(displacements) and origin_in_hull_interior(displacements, g.dim)
    if len(sccs) > 1:
        verdict = VERDICT_DISCONNECTED
    elif rank == g.dim and index == 1 and cone_full:
        verdict = VERDICT_STRONG
    else:
        verdict = VERDICT_QUOTIENT

    an = GraphAnalysis(g)
    assert list(an.cycles) == cycles
    rep = an.report
    assert (rep.cycle_lattice_rank, rep.lattice_index, rep.cone_full, rep.verdict) == (
        rank, index, cone_full, verdict
    )
    assert an.velocities == tuple(sorted({velocity(c) for c in cycles}))
    per_scc: dict[int, list] = {}
    for c in cycles:
        per_scc.setdefault(scc_of[g.edges[c[0]].source], []).append(velocity(c))
    expected = tuple(
        (comp_id, convex_hull(vels, dim=g.dim)) for comp_id, vels in sorted(per_scc.items())
    )
    assert an.components == expected
    assert velocity_set(g).components == expected
    if len(sccs) == 1:
        assert velocity_polytope(g) == convex_hull([velocity(c) for c in cycles], dim=g.dim)
