"""Chain contraction: the analysis of the folded graph against the graph itself."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from helpers import random_graph, subdivide
from oracles import brute_cycles, brute_sccs
from velo import (
    BudgetError,
    DisplacementGraph,
    Edge,
    GraphAnalysis,
    convex_hull,
    enumerate_cycles,
    realize,
    strongly_connected_components,
)
from velo.graph import contract_chains

F = Fraction


class Uncontracted(GraphAnalysis):
    """The analysis run on the graph itself, every chain left in place."""

    _contraction = None


@st.composite
def chained_graphs(draw):
    """A ``helpers`` random graph with up to three of its edges cut into chains."""
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), max_vertices=4, max_edges=7)
    picks = draw(st.lists(st.integers(0, len(g.edges) - 1), max_size=3, unique=True))
    return subdivide(g, {eid: draw(st.integers(1, 3)) for eid in picks})


def graph(dim: int, names: str, *edges: tuple[int, int, tuple[int, ...]]) -> DisplacementGraph:
    return DisplacementGraph(dim, tuple(names), tuple(Edge(*e) for e in edges))


PURE_RING = graph(1, "abcd", (0, 1, (1,)), (1, 2, (0,)), (2, 3, (0,)), (3, 0, (-3,)))
# a and b loop, d and e loop, c runs from one to the other
CHAIN_BETWEEN_SCCS = graph(
    2, "abcde",
    (0, 1, (1, 0)), (1, 0, (0, 0)), (1, 0, (0, 1)), (1, 2, (0, 0)), (2, 3, (1, 1)),
    (3, 4, (0, -1)), (4, 3, (0, 0)), (4, 3, (1, 0)),
)
# b and c lead from a into d, which has a self-loop; d returns to a
CHAIN_INTO_SELF_LOOP = graph(
    1, "abcd", (0, 1, (1,)), (1, 2, (0,)), (2, 3, (1,)), (3, 3, (-1,)), (3, 0, (0,)), (0, 0, (2,))
)
# b and c hang off the cycle a-a and end at the sink d
DANGLING_CHAIN = graph(1, "abcd", (0, 0, (1,)), (0, 1, (0,)), (1, 2, (0,)), (2, 3, (0,)))
RING_OF_12 = realize(convex_hull([(F(1, 4),), (F(-1, 6),)]))  # a ring of 12 and two closing edges
# the chain a -e1-> b -e0-> c holds the least id, but not as its first: c -> a runs twice
LEAST_INSIDE_A_CHAIN = graph(1, "abc", (1, 2, (0,)), (0, 1, (1,)), (2, 0, (0,)), (2, 0, (-1,)))
# the chain vertex a is the least of {a, c}, so the core {b, c} lists b's component
# first, while the graph lists it second
CHAIN_HOLDS_THE_LEAST_VERTEX = graph(
    1, "abc", (2, 0, (1,)), (0, 2, (0,)), (2, 2, (-1,)), (1, 1, (1,)), (1, 1, (0,)), (2, 1, (0,))
)


@given(chained_graphs())
@example(PURE_RING)
@example(CHAIN_BETWEEN_SCCS)
@example(CHAIN_INTO_SELF_LOOP)
@example(DANGLING_CHAIN)
@example(RING_OF_12)
@example(CHAIN_HOLDS_THE_LEAST_VERTEX)
def test_contraction_matches_the_graph_itself(g):
    an, ref = GraphAnalysis(g), Uncontracted(g)
    assert ref.core is g
    cycles = brute_cycles(g)
    assert list(an.cycles) == cycles
    assert an.cycle_pairs.total() == len(cycles)
    assert an.sccs == brute_sccs(g)
    assert an.cycle_pairs == ref.cycle_pairs
    assert an.velocities == ref.velocities
    assert an.components == ref.components
    assert an.report == ref.report


@given(chained_graphs())
@example(PURE_RING)
@example(CHAIN_BETWEEN_SCCS)
@example(CHAIN_INTO_SELF_LOOP)
@example(DANGLING_CHAIN)
@example(RING_OF_12)
@example(LEAST_INSIDE_A_CHAIN)
def test_cycle_stream_is_sorted_canonical_and_budgeted(g):
    cycles = brute_cycles(g)
    assert list(enumerate_cycles(g)) == cycles
    for an in (GraphAnalysis(g), Uncontracted(g)):
        for k in range(len(cycles) + 1):  # each prefix of the stream is one of the list
            assert list(islice(an.cycle_stream(), k)) == cycles[:k]
    if cycles:  # a budget of one cycle fewer lets all but the last through
        budget = len(cycles) - 1
        for an in (GraphAnalysis(g, max_cycles=budget), Uncontracted(g, max_cycles=budget)):
            stream = an.cycle_stream()
            assert [next(stream) for _ in cycles[1:]] == cycles[:-1]
            with pytest.raises(BudgetError):
                next(stream)


@given(chained_graphs())
@example(PURE_RING)
@example(CHAIN_BETWEEN_SCCS)
@example(DANGLING_CHAIN)
@example(RING_OF_12)
def test_components_are_mutually_reachable_classes(g):
    assert strongly_connected_components(g) == brute_sccs(g)
    assert_component_table(g)
    c = contract_chains(g)
    if c is not None:  # the fold folds no further, so its own components need no second fold
        assert DisplacementGraph(c.graph.dim, c.graph.vertices, c.graph.edges) == c.graph
        assert contract_chains(c.graph) is None
        assert strongly_connected_components(c.graph) == brute_sccs(c.graph)
        assert_component_table(c.graph)


def assert_component_table(g):
    """Each vertex's component index and its out-edges inside, against ``brute_sccs``."""
    comps = brute_sccs(g)
    comp_of = [next(k for k, comp in enumerate(comps) if v in comp) for v in range(len(g.vertices))]
    assert g._comp_of == tuple(comp_of)
    assert g._inside == tuple(
        tuple(eid for eid, e in enumerate(g.edges) if e.source == v and comp_of[e.target] == k)
        for v, k in enumerate(comp_of)
    )


def test_components_of_a_long_path_without_chain_vertices():
    # doubled edges give every inner vertex in-degree 2 and out-degree 2, so nothing
    # folds: Tarjan walks 20,000 deep, which a recursive search could not, and pops
    # 20,000 components, each off the top of its stack
    n = 20_000
    g = graph(1, [f"v{i}" for i in range(n)],
              *[(i // 2, i // 2 + 1, (i % 2,)) for i in range(2 * n - 2)])
    assert contract_chains(g) is None
    assert strongly_connected_components(g) == tuple((v,) for v in range(n))
    assert g._comp_of == tuple(range(n))
    assert g._inside == ((),) * n


@pytest.mark.parametrize(
    "g, vertices, edges",
    [
        (PURE_RING, "a", [(0, 0, (-2,), (0, 1, 2, 3))]),
        (CHAIN_BETWEEN_SCCS, "abde", [
            (0, 1, (1, 0), (0,)), (1, 0, (0, 0), (1,)), (1, 0, (0, 1), (2,)),
            (1, 2, (1, 1), (3, 4)), (2, 3, (0, -1), (5,)), (3, 2, (0, 0), (6,)),
            (3, 2, (1, 0), (7,)),
        ]),
        (CHAIN_INTO_SELF_LOOP, "ad", [
            (0, 1, (2,), (0, 1, 2)), (1, 1, (-1,), (3,)), (1, 0, (0,), (4,)), (0, 0, (2,), (5,)),
        ]),
        (DANGLING_CHAIN, "ad", [(0, 0, (1,), (0,)), (0, 1, (0,), (1, 2, 3))]),
    ],
)
def test_contracted_graphs(g, vertices, edges):
    c = contract_chains(g)
    assert c.graph.vertices == tuple(vertices)
    assert c.kept == tuple(g.vertices.index(v) for v in vertices)
    assert [(*e, p) for e, p in zip(c.graph.edges, c.chains)] == edges


def test_nothing_contracts_on_graphs_without_chain_vertices(honeycomb, square, pm2):
    loops = graph(1, "ab", (0, 0, (1,)), (0, 1, (0,)), (1, 1, (1,)), (1, 0, (0,)))
    lone_loop = graph(1, "a", (0, 0, (1,)))  # in-degree 1 and out-degree 1, through itself
    source = graph(1, "ab", (0, 1, (1,)), (1, 1, (0,)), (1, 1, (1,)))  # a has in-degree 0
    for g in (honeycomb, square, pm2, loops, lone_loop, source):
        assert contract_chains(g) is None
        assert GraphAnalysis(g).core is g


def test_realized_ring_is_contracted_before_any_cycle_work(monkeypatch):
    import velo.cycles
    import velo.graph
    import velo.invariants

    seen = []

    def spy(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            seen.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(velo.invariants, "core_cycles")
    spy(velo.cycles, "core_cycles")
    spy(velo.invariants, "max_ratio_cycle")
    spy(velo.graph, "_tarjan")
    # denominators 8, 9, 5 and 7: a ring of lcm 2,520 vertices
    p = convex_hull([(F(1, 8), F(0)), (F(0), F(1, 9)), (F(-1, 5), F(-1, 7)), (F(1, 3), F(1, 3))])
    g = realize(p)
    assert len(g.vertices) == 2520
    an = GraphAnalysis(g)
    assert an.polytope == p
    assert len(an.sccs) == 1
    # the ring folds into one edge from its first vertex to its last, which
    # the polytope's closing edges join back to the first
    core = an.core
    assert len(core.vertices) == 2 and len(core.edges) == len(p.vertices) + 1
    # the support oracle sees the core's arcs between its two vertices, and no cycle is listed
    queries = [arg for name, arg in seen if name == "max_ratio_cycle"]
    assert queries and all(sorted(arcs) == sorted(e[:2] for e in core.edges) for arcs in queries)
    assert not [arg for name, arg in seen if name == "core_cycles"]
    assert len(an.cycles) == len(p.vertices)
    assert [arg for name, arg in seen if name == "core_cycles"] == [core]
    tarjans = [len(arg) for name, arg in seen if name == "_tarjan"]
    assert tarjans and max(tarjans) <= len(core.vertices)


def test_realize_budget_stops_before_the_ring():
    # lcm 99991 * 99989 ~ 10^10: a ring of that many names would take terabytes
    p = convex_hull([(F(1, 99991),), (F(-1, 99989),)])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="lcm 9998000099 "):
            realize(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
