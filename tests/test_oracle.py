"""Velocity polytopes and verdicts from the support oracle, against brute-force cycles."""
from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from helpers import random_graph, subdivide
from oracles import brute_cycles
from velo import (
    VERDICT_DISCONNECTED,
    VERDICT_QUOTIENT,
    VERDICT_STRONG,
    BudgetError,
    ConnectivityReport,
    DisplacementGraph,
    GraphAnalysis,
    Polytope,
    convex_hull,
    lattice_rank_and_index,
    origin_in_hull_interior,
    parse_dgf,
    strongly_connected_components,
)
from velo.cycles import max_ratio_cycle
from velo.geometry import polytope_from_support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import nets  # noqa: E402  (closed-form crystal nets, no velo inside)

F = Fraction

# the gauge-moved dia 2x2x1 supercells that perfbench's nets3d deck writes for
# random.Random(9) and random.Random(11); policy iteration without a
# termination guarantee looped forever on them
DIA_VERTICES = "".join(f"vertex {k}_{i}_{j}_0\n" for k in "AB" for i in "01" for j in "01")
DIA_SEED_9 = parse_dgf("dim 3\n" + DIA_VERTICES + """\
edge A_0_0_0 B_0_0_0 1 0 2
edge A_0_0_0 B_1_0_0 6 -4 1
edge A_0_0_0 B_0_1_0 2 -2 -1
edge A_0_0_0 B_0_0_0 1 0 3
edge A_0_1_0 B_0_1_0 0 3 0
edge A_0_1_0 B_1_1_0 -1 2 4
edge A_0_1_0 B_0_0_0 -1 6 3
edge A_0_1_0 B_0_1_0 0 3 1
edge A_1_0_0 B_1_0_0 2 1 2
edge A_1_0_0 B_0_0_0 -2 5 3
edge A_1_0_0 B_1_1_0 -3 2 4
edge A_1_0_0 B_1_0_0 2 1 3
edge A_1_1_0 B_1_1_0 1 3 1
edge A_1_1_0 B_0_1_0 3 4 -3
edge A_1_1_0 B_1_0_0 6 3 -1
edge A_1_1_0 B_1_1_0 1 3 2
edge B_0_0_0 A_0_0_0 -1 0 -2
edge B_0_0_0 A_1_0_0 2 -5 -3
edge B_0_0_0 A_0_1_0 1 -6 -3
edge B_0_0_0 A_0_0_0 -1 0 -3
edge B_0_1_0 A_0_1_0 0 -3 0
edge B_0_1_0 A_1_1_0 -3 -4 3
edge B_0_1_0 A_0_0_0 -2 2 1
edge B_0_1_0 A_0_1_0 0 -3 -1
edge B_1_0_0 A_1_0_0 -2 -1 -2
edge B_1_0_0 A_0_0_0 -6 4 -1
edge B_1_0_0 A_1_1_0 -6 -3 1
edge B_1_0_0 A_1_0_0 -2 -1 -3
edge B_1_1_0 A_1_1_0 -1 -3 -1
edge B_1_1_0 A_0_1_0 1 -2 -4
edge B_1_1_0 A_1_0_0 3 -2 -4
edge B_1_1_0 A_1_1_0 -1 -3 -2
""")
DIA_SEED_11 = parse_dgf("dim 3\n" + DIA_VERTICES + """\
edge A_0_0_0 B_0_0_0 -2 -1 -1
edge A_0_0_0 B_1_0_0 -3 0 4
edge A_0_0_0 B_0_1_0 -5 -1 3
edge A_0_0_0 B_0_0_0 -2 -1 0
edge A_0_1_0 B_0_1_0 -5 -5 0
edge A_0_1_0 B_1_1_0 0 -2 -2
edge A_0_1_0 B_0_0_0 -2 -4 -4
edge A_0_1_0 B_0_1_0 -5 -5 1
edge A_1_0_0 B_1_0_0 1 -4 2
edge A_1_0_0 B_0_0_0 3 -5 -3
edge A_1_0_0 B_1_1_0 4 -2 -1
edge A_1_0_0 B_1_0_0 1 -4 3
edge A_1_1_0 B_1_1_0 2 -1 2
edge A_1_1_0 B_0_1_0 -2 -4 4
edge A_1_1_0 B_1_0_0 -1 -2 5
edge A_1_1_0 B_1_1_0 2 -1 3
edge B_0_0_0 A_0_0_0 2 1 1
edge B_0_0_0 A_1_0_0 -3 5 3
edge B_0_0_0 A_0_1_0 2 4 4
edge B_0_0_0 A_0_0_0 2 1 0
edge B_0_1_0 A_0_1_0 5 5 0
edge B_0_1_0 A_1_1_0 2 4 -4
edge B_0_1_0 A_0_0_0 5 1 -3
edge B_0_1_0 A_0_1_0 5 5 -1
edge B_1_0_0 A_1_0_0 -1 4 -2
edge B_1_0_0 A_0_0_0 3 0 -4
edge B_1_0_0 A_1_1_0 1 2 -5
edge B_1_0_0 A_1_0_0 -1 4 -3
edge B_1_1_0 A_1_1_0 -2 1 -2
edge B_1_1_0 A_0_1_0 0 2 2
edge B_1_1_0 A_1_0_0 -4 2 1
edge B_1_1_0 A_1_1_0 -2 1 -3
""")
# a ring and a self-loop with the same velocity (1, 1)
SINGLE_VELOCITY = parse_dgf("dim 2\nvertex A\nvertex B\nedge A B 1 0\nedge B A 1 2\nedge A A 1 1\n")
ACYCLIC = parse_dgf("dim 2\nvertex A\nvertex B\nvertex C\nedge A B 1 0\nedge B C 0 1\nedge A C 1 1\n")


@st.composite
def oracle_graphs(draw):
    """A ``helpers`` random graph with any component structure; half of them
    flat (every displacement in the span of fewer than d vectors), and up to
    three edges cut into chains."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(rng, max_vertices=5, max_edges=9)
    if draw(st.booleans()):
        basis = [[rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(rng.randrange(g.dim))]
        g = DisplacementGraph(g.dim, g.vertices, tuple(
            e._replace(displacement=tuple(map(sum, zip((0,) * g.dim, *(
                [rng.randint(-2, 2) * x for x in b] for b in basis)))))
            for e in g.edges
        ))
    picks = draw(st.lists(st.integers(0, len(g.edges) - 1), max_size=3, unique=True))
    return subdivide(g, {eid: draw(st.integers(1, 3)) for eid in picks})


@given(oracle_graphs())
@example(DIA_SEED_9)
@example(DIA_SEED_11)
@example(SINGLE_VELOCITY)
@example(ACYCLIC)
def test_analysis_matches_the_hull_of_brute_force_velocities(g):
    cycles = brute_cycles(g)
    sccs = strongly_connected_components(g)
    scc_of = [next(k for k, comp in enumerate(sccs) if v in comp) for v in range(len(g.vertices))]

    def displacement(c):
        return tuple(sum(g.edges[e].displacement[j] for e in c) for j in range(g.dim))

    per_scc: dict[int, set] = {}
    for c in cycles:
        velocity = tuple(F(x, len(c)) for x in displacement(c))
        per_scc.setdefault(scc_of[g.edges[c[0]].source], set()).add(velocity)
    components = tuple((k, convex_hull(vs, dim=g.dim)) for k, vs in sorted(per_scc.items()))
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
    assert an.components == components
    if len(sccs) == 1:
        assert an.polytope == (components[0][1] if components else Polytope(g.dim, ()))
    assert an.report == ConnectivityReport(
        len(sccs), tuple(scc_of), rank, index, cone_full, verdict
    )
    assert an.cycle_count == len(cycles)


@st.composite
def point_sets(draw):
    """1 to 9 rational points in d = 1..4; half of the sets lie in a flat of
    lower dimension through a random point."""
    dim = draw(st.integers(1, 4))
    rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    vec = st.tuples(*[rational] * dim)
    if draw(st.booleans()):
        return draw(st.lists(vec, min_size=1, max_size=9))
    base = draw(vec)
    basis = draw(st.lists(vec, max_size=dim - 1))
    coefs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    return [tuple(b + sum((c * v[j] for c, v in zip(cs, basis)), F(0)) for j, b in enumerate(base))
            for cs in draw(st.lists(coefs, min_size=1, max_size=9))]


OCTAHEDRON = [tuple(F(s * (j == i)) for j in range(3)) for i in range(3) for s in (1, -1)]


# The +-e_i answers span only the line through 0 and A, and the answers for
# the normals of that line span only the plane through q; r, off that plane,
# is found by asking again with the plane's normal.  The one point (1, 0),
# answered as (2, 0)/2 and as (1, 0)/1, is one vertex.  The octahedron's
# +-e_i answers are integral; (1/2, 1/2, 1/2), beyond its facet
# x + y + z <= 1, brings the first denominator 2, and the hull rescales.
@given(point_sets(), st.lists(st.integers(1, 4), min_size=1, max_size=8))
@example([(F(0), F(0), F(0)), (F(20), F(20), F(20)), (F(10), F(18), F(2)), (F(10), F(12), F(7))],
         [1])
@example([(F(1), F(0))], [2, 1])
@example(OCTAHEDRON + [(F(1, 2),) * 3], [3])
def test_polytope_from_support_matches_convex_hull(points, factors):
    """The support answers come back scaled by the factors in turn, not in lowest terms."""
    asked = []

    def support(u):
        k = factors[len(asked) % len(factors)]
        asked.append(u)
        p = max(points, key=lambda p: (sum(a * x for a, x in zip(u, p)), p))
        t = math.lcm(*(x.denominator for x in p))
        return tuple(int(x * t) * k for x in p), t * k

    assert polytope_from_support(support, len(points[0])) == convex_hull(points)
    assert len(asked) == len(set(asked))
    assert all(math.gcd(*u) == 1 for u in asked)


def test_max_ratio_cycle():
    # a loop of ratio 1 at vertex 0, and the ring 0 -> 1 -> 0 of ratio (2 + 3) / (1 + 2)
    arcs, weights, lengths = [(0, 0), (0, 1), (1, 0)], [1, 2, 3], [1, 1, 2]
    assert sorted(max_ratio_cycle(arcs, weights, lengths, 10, "a,b")) == [1, 2]
    # each vertex's best arc closes the loop, of ratio 2; improving it finds the ring's 10/3
    weights = [2, 1, 9]
    assert sorted(max_ratio_cycle(arcs, weights, lengths, 10, "a,b")) == [1, 2]
    weights = [4, 1, 9]  # now the loop is best
    assert max_ratio_cycle(arcs, weights, lengths, 10, "a,b") == [0]
    with pytest.raises(BudgetError) as err:
        max_ratio_cycle(arcs, [2, 1, 9], lengths, 0, "a,b")
    assert str(err.value) == (
        "oracle budget of 0 relaxations exceeded: a support query made 1 in component {a,b}"
    )


@pytest.mark.parametrize("base, cells", [("sq", (8, 8)), ("dia", (3, 3, 3))])
def test_large_supercells_without_enumeration(base, cells):
    # sq 8x8 and dia 3x3x3 have far more simple cycles than the cycle budget
    g = parse_dgf(nets.dgf_text(nets.supercell(nets.BASE[base], cells)))
    start = time.perf_counter()
    vertices = GraphAnalysis(g, max_cycles=1).polytope.vertices
    assert time.perf_counter() - start < 5
    assert list(vertices) == nets.polytope_vertices(nets.BASE[base], cells)
