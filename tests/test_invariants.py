from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    CROSS_VERTICES,
    CUBIC_DGF,
    DIAMOND_DGF,
    HEX_VERTICES,
    HONEYCOMB_DGF,
    random_gauge,
    random_strongly_connected_graph,
    subdivide,
)
from oracles import brute_cycles, brute_sccs, facets_brute, member_caratheodory
from velo import (
    BudgetError,
    Edge,
    GraphAnalysis,
    NotStronglyConnectedError,
    Polytope,
    VERDICT_DISCONNECTED,
    VERDICT_QUOTIENT,
    VERDICT_STRONG,
    DisplacementGraph,
    bfs_distance,
    connectivity_report,
    convex_hull,
    gamma_norm_oracle,
    gauge_norm,
    gauge_transform,
    lattice_rank_and_index,
    origin_in_hull_interior,
    parse_dgf,
    strongly_connected_components,
    velocity_polytope,
    velocity_set,
)
from velo.cycles import core_cycles

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
    assert len(vset) == 1
    assert vset[0][0] == 0
    assert vset[0][1] == velocity_polytope(honeycomb)


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
    assert [cid for cid, _ in vset] == [0, 1]
    assert vset[0][1].vertices == CROSS_VERTICES
    assert vset[1][1].vertices == HEX_VERTICES


def test_velocity_set_no_cycles():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 0")
    assert velocity_set(g) == ()


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
        origin = (0, (0,) * g.dim)
        reach_all = True
        for axis in range(g.dim):
            for sign in (1, -1):
                target = tuple(sign if i == axis else 0 for i in range(g.dim))
                if bfs_distance(g, 15, origin, (0, target)) is None:
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


def test_polytope_moves_with_gauge_and_unimodular_maps():
    """Metamorphic relations on graphs of 20-40 vertices in d = 3, where no
    brute-force oracle reaches: a gauge move leaves P as it is, and a
    unimodular A applied to every displacement maps P's vertices to A.v."""
    rng = random.Random(2029)
    for _ in range(20):
        g = random_strongly_connected_graph(rng, max_vertices=40, max_extra_edges=80)
        while g.dim != 3 or len(g.vertices) < 20:
            g = random_strongly_connected_graph(rng, max_vertices=40, max_extra_edges=80)
        p = GraphAnalysis(g).polytope
        assert GraphAnalysis(gauge_transform(g, random_gauge(g, rng))).polytope == p
        a = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(4):  # row additions and a sign flip keep |det A| = 1
            i, j = rng.sample(range(3), 2)
            a[i] = [x + rng.choice((-2, -1, 1, 2)) * y for x, y in zip(a[i], a[j])]
        i = rng.randrange(3)
        a[i] = [-x for x in a[i]]

        def image(v):
            return tuple(sum(x * c for x, c in zip(row, v)) for row in a)

        mapped = DisplacementGraph(3, g.vertices, tuple(
            e._replace(displacement=image(e.displacement)) for e in g.edges))
        assert GraphAnalysis(mapped).polytope.vertices == tuple(sorted(map(image, p.vertices)))


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


@st.composite
def symmetric_graphs(draw, dim=None):
    """Up to 3 vertices in d = 1..3 (or ``dim``) and up to 3 edges, each with its
    reverse under the negated displacement; both edges of a pair are cut into
    the same number of steps, and a gauge move then shifts every vertex, chain
    vertices too."""
    dim = dim or draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    disp = st.tuples(*[st.integers(-2, 2)] * dim)
    half = draw(st.lists(st.builds(Edge, vertex, vertex, disp), min_size=1, max_size=3))
    edges = half + [Edge(e.target, e.source, tuple(-x for x in e.displacement)) for e in half]
    cuts = draw(st.lists(st.integers(0, 2), min_size=len(half), max_size=len(half)))
    g = subdivide(DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), tuple(edges)),
                  dict(enumerate(cuts + cuts)))
    shift = draw(st.lists(disp, min_size=len(g.vertices), max_size=len(g.vertices)))
    return DisplacementGraph(dim, g.vertices, tuple(
        Edge(s, t, tuple(x + b - a for x, a, b in zip(d, shift[s], shift[t])))
        for s, t, d in g.edges))


@st.composite
def two_mirrored_components(draw):
    """Two symmetric graphs of one dimension side by side, their edges in a drawn order."""
    dim = draw(st.integers(1, 2))
    g, h = draw(symmetric_graphs(dim)), draw(symmetric_graphs(dim))
    edges = [*g.edges, *(Edge(s + len(g.vertices), t + len(g.vertices), d) for s, t, d in h.edges)]
    order = draw(st.permutations(range(len(edges))))
    return DisplacementGraph(dim, (*g.vertices, *(f"w{v}" for v in h.vertices)),
                             tuple(edges[i] for i in order))


# each packed example has a cycle with a digit at +-(B - 1)/2, the largest
# the packing allows; each mirrored one pins a case of the twin pairing
@given(st.one_of(packed_graphs(), symmetric_graphs()))
@example(parse_dgf("dim 1\nvertex A\nedge A A -5"))  # B = 11, displacement digit -5
@example(parse_dgf("dim 1\nvertex A\nedge A A 5"))  # B = 11, displacement digit 5
@example(parse_dgf("dim 2\nvertex A\nedge A A -5 5"))  # both signs in one code
@example(parse_dgf("dim 1\nvertex A\nvertex B\nedge A B -3\nedge B A -2"))  # -5 from two
@example(subdivide(parse_dgf("dim 1\nvertex A\nedge A A 0"), {0: 2}))  # length digit 3
@example(parse_dgf("dim 1\nvertex A\nedge A A 0"))  # a zero self-loop, its own twin
# two identical arcs and their two reverses: twins tie-break by edge id
@example(parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 1\nedge A B 1\nedge B A -1\nedge B A -1"))
@example(parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 1\nedge B A -1"))  # holds its root's twin
@example(subdivide(parse_dgf(HONEYCOMB_DGF), {4: 1}))  # one longer arc: not mirrored
# displacement 1 over 2 steps is a halved key in the mirrored {A,B}, whose
# reverse has -1, and a plain key in {C,D}, which does not mirror
@example(parse_dgf("dim 1\nvertex A\nvertex B\nvertex C\nvertex D\nedge A B 1\nedge B A 0\n"
                   "edge A B 0\nedge B A -1\nedge C D 1\nedge D C 0"))
def test_cycle_pairs_match_brute_force(g):
    expected = Counter(
        (tuple(map(sum, zip(*(g.edges[eid].displacement for eid in c)))), len(c))
        for c in brute_cycles(g)
    )
    assert GraphAnalysis(g).cycle_pairs == expected


def _budget_message(run):
    try:
        run()
    except BudgetError as exc:
        return str(exc)
    return None


# two mirrored components whose cycles interleave in the plain stream: the
# halved search reaches a count early in {a0,a1} that the plain stream
# reaches in {b0,b1}
TWO_MIRRORED_DGF = """\
dim 1
vertex a0
vertex a1
vertex b0
vertex b1
edge a0 a1 1
edge b0 b1 1
edge a1 a0 -1
edge b1 b0 -1
edge a0 a1 2
edge b0 b1 0
edge a1 a0 -2
edge b1 b0 0
"""


def test_halved_count_overflows_where_the_plain_stream_does():
    g = parse_dgf(TWO_MIRRORED_DGF)
    names = []
    for k in range(1, 8):
        message = _budget_message(lambda: GraphAnalysis(g, max_cycles=k).cycle_pairs)
        assert message == _budget_message(lambda: list(core_cycles(g, None, k)))
        names.append(message.rsplit(" ", 1)[1])
    assert names == ["{a0,a1}", "{b0,b1}", "{b0,b1}", "{a0,a1}", "{b0,b1}", "{a0,a1}", "{b0,b1}"]
    assert GraphAnalysis(g, max_cycles=8).cycle_pairs.total() == 8


@given(two_mirrored_components())
def test_halved_count_meets_the_budget_as_the_plain_stream_does(g):
    total = len(brute_cycles(g))
    for k in range(1, total + 1):
        assert _budget_message(lambda: GraphAnalysis(g, max_cycles=k).cycle_pairs) == (
            _budget_message(lambda: GraphAnalysis(g, max_cycles=k).cycles))


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
    assert velocity_set(g) == expected
    if len(sccs) == 1:
        assert velocity_polytope(g) == convex_hull([velocity(c) for c in cycles], dim=g.dim)


@st.composite
def rings(draw):
    """A ring through up to 4 vertices plus up to 4 more edges in d = 1..3, so one
    component; half the draws pair each edge with its reverse, which makes
    the verdict strong more often."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    disp = st.tuples(*[st.integers(-2, 2)] * dim)
    edges = [Edge(i, (i + 1) % n, draw(disp)) for i in range(n)]
    edges += draw(st.lists(st.builds(Edge, vertex, vertex, disp), max_size=4))
    if draw(st.booleans()):
        edges += [Edge(e.target, e.source, tuple(-c for c in e.displacement)) for e in edges]
    return DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), tuple(edges))


@given(rings(), st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_strong_verdict_makes_every_gauge_finite(g, x):
    # the verdict asks for the origin inside the one component's P, so every
    # facet offset is positive and `velo norm` never meets an infinite gauge
    analysis = GraphAnalysis(g)
    assume(analysis.report.verdict == VERDICT_STRONG)
    assert isinstance(gauge_norm(analysis.polytope, x[: g.dim]), Fraction)


@given(rings(), st.lists(st.integers(-2, 2), min_size=3, max_size=3), st.integers(1, 2))
def test_bfs_growth_samples_never_undercut_the_gauge(g, x, n):
    # the oracle's walk from (v, 0) to (v, n x) is closed in the quotient, so
    # it splits into simple cycles c with n x = sum(len(c) vel(c)) and every
    # vel(c) in P: the gauge of x is at most sum(len(c)) / n, the sample
    analysis = GraphAnalysis(g)
    assume(analysis.report.verdict == VERDICT_STRONG)
    x = x[: g.dim]
    assert gamma_norm_oracle(g, x, n) >= gauge_norm(analysis.polytope, x)


# ---------------------------------------------------------------------------
# components whose arcs are closed under reversal answer -u from u


def _expected_components(g):
    """(component id, polytope) per component with a cycle, from ``brute_cycles``,
    ``brute_sccs``, ``member_caratheodory`` and ``facets_brute`` alone."""
    comp_of = {v: i for i, comp in enumerate(brute_sccs(g)) for v in comp}
    per_comp: dict[int, set] = {}
    for c in brute_cycles(g):
        total = [sum(g.edges[e].displacement[j] for e in c) for j in range(g.dim)]
        per_comp.setdefault(comp_of[g.edges[c[0]].source], set()).add(
            tuple(F(x, len(c)) for x in total))
    out = []
    for comp_id, vels in sorted(per_comp.items()):
        pts = sorted(vels)
        vertices = tuple(v for i, v in enumerate(pts)
                         if not member_caratheodory(v, pts[:i] + pts[i + 1:]))
        facets = facets_brute(pts)
        out.append((comp_id, Polytope(g.dim, vertices, facets and tuple(facets))))
    return tuple(out)


@given(symmetric_graphs())
def test_symmetric_components_match_brute_force(g):
    assert GraphAnalysis(g).components == _expected_components(g)


def test_one_longer_arc_breaks_the_symmetry():
    # the honeycomb with its B->A edge of displacement (0, -1) cut into two
    # steps: reversal maps the arcs onto themselves, but not that one's length
    g = subdivide(parse_dgf(HONEYCOMB_DGF), {4: 1})
    components = GraphAnalysis(g).components
    assert components == _expected_components(g)
    vertices = set(components[0][1].vertices)
    assert vertices != {tuple(-c for c in v) for v in vertices}  # so P != -P


# 14 and 20 support queries when each direction is asked
@pytest.mark.parametrize("text, calls", [(CUBIC_DGF, 7), (DIAMOND_DGF, 12)], ids=["cub", "dia"])
def test_symmetric_components_ask_the_oracle_less(text, calls, monkeypatch):
    import velo.invariants

    original, made = velo.invariants.max_ratio_cycle, []

    def counting(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(velo.invariants, "max_ratio_cycle", counting)
    GraphAnalysis(parse_dgf(text)).polytope
    assert len(made) == calls
