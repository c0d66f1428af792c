from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from helpers import random_gauge, random_graph, random_strongly_connected_graph, random_walk
from oracles import brute_cycles, decompose_restart_scan
from velo import (
    BudgetError,
    DisplacementGraph,
    Edge,
    GraphAnalysis,
    basic_velocities,
    canonical_rotation,
    decompose_path,
    enumerate_cycles,
    gauge_transform,
    is_cycle,
    parse_dgf,
    path_displacement,
)
from velo.cycles import DEFAULT_MAX_CYCLES, core_cycles
from velo.graph import inf_norm


# ---------------------------------------------------------------------------
# path displacement


def test_empty_path_displacement(honeycomb):
    assert path_displacement(honeycomb, ()) == (0, 0)


def test_honeycomb_path_displacement(honeycomb):
    # A->B with (0,1) is edge 1, B->A with (1,0) is edge 5
    assert path_displacement(honeycomb, (1, 5)) == (1, 1)


def test_displacement_additive_over_concatenation(honeycomb):
    rng = random.Random(3)
    for _ in range(20):
        p = random_walk(honeycomb, rng, rng.randint(1, 10))
        start = honeycomb.edges[p[-1]].target
        q = random_walk(honeycomb, rng, rng.randint(1, 10), start=start)
        joined = p + q
        left = path_displacement(honeycomb, p)
        right = path_displacement(honeycomb, q)
        assert path_displacement(honeycomb, joined) == tuple(a + b for a, b in zip(left, right))


def test_non_composing_path_rejected(honeycomb):
    with pytest.raises(ValueError):
        path_displacement(honeycomb, (0, 0))  # A->B cannot follow A->B


# ---------------------------------------------------------------------------
# canonical rotation


@pytest.mark.parametrize("edges, closed", [
    ((), False),        # empty
    ((0, 0), False),    # A->B cannot follow A->B
    ((0,), False),      # A->B does not close
    ((0, 3), True),     # A->B->A
])
def test_is_cycle(honeycomb, edges, closed):
    assert is_cycle(honeycomb, edges) is closed


def test_least_rotation_matches_naive():
    rng = random.Random(11)
    for _ in range(300):
        seq = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 12)))
        naive = min(seq[i:] + seq[:i] for i in range(len(seq)))
        assert canonical_rotation(seq) == naive


# ---------------------------------------------------------------------------
# enumeration


def test_honeycomb_cycles(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    assert list(cycles) == [
        (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)
    ]
    assert all(len(c) == 2 for c in cycles)
    # counted with a distinguished start vertex these 9 become 18
    assert sum(map(len, cycles)) == 18


def test_two_self_loops():
    g = parse_dgf("dim 1\nvertex A\nedge A A 1\nedge A A 2")
    cycles = enumerate_cycles(g)
    assert cycles == ((0,), (1,))


def test_directed_triangle():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nvertex C\nedge A B 0\nedge B C 0\nedge C A 1")
    cycles = enumerate_cycles(g)
    assert cycles == ((0, 1, 2),)


def test_enumeration_matches_brute_force():
    rng = random.Random(42)
    for _ in range(150):
        g = random_graph(rng, max_vertices=5, max_edges=10, max_dim=2)
        assert list(enumerate_cycles(g)) == brute_cycles(g)


@st.composite
def multigraphs(draw):
    """Up to 7 vertices and 14 edges in d = 1..2, with self-loops, parallel
    edges and any number of components."""
    dim, n = draw(st.integers(1, 2)), draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edge = st.builds(Edge, vertex, vertex, st.tuples(*[st.integers(-2, 2)] * dim))
    return DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)),
                             tuple(draw(st.lists(edge, max_size=14))))


def _multigraph(n: int, *arcs: tuple[int, int]) -> DisplacementGraph:
    return DisplacementGraph(1, tuple(f"v{i}" for i in range(n)),
                             tuple(Edge(s, t, (0,)) for s, t in arcs))


# Root e0 = y->r goes first and leaves.  Root e1 = r->y then reaches z, which
# can no longer return to r: z and y end that search blocked.  The next root,
# e2 = y->z, closes y->z->y through z.  The self-loops keep every vertex off a
# chain, so nothing folds.
STUCK_AT_A_ROOTS_END = _multigraph(3, (1, 0), (0, 1), (1, 2), (2, 1), (2, 2), (0, 0))
# Root e1 = 2->3 ends with 3, 1 and 0 blocked and 0 and 3 in B(1).  Root e2 =
# 0->3 closes 0->3->1->0, and unblocking 1 must not unblock 3, which is on the
# path: with B(1) left over, e6 = 3->3 would revisit 3 and yield (2, 6, 4, 5).
# Only the unfolded search (chains None) meets this, as v2 is a chain vertex.
LEFT_IN_A_B_SET = _multigraph(
    4, (3, 2), (2, 3), (0, 3), (0, 1), (3, 1), (1, 0), (3, 3), (0, 3)
)

# Root e1 = 3->0 ends with 0, 1 and 2 blocked and B(2) = [1, 0].  Root e2 =
# 0->1 closes 0->1->2->0, and unblocking 2 must not unblock 1, which is on
# the path: with B(2) left over from e1 rather than None, e7 = 1->1 would
# revisit 1 and yield (2, 7, 4, 5).  Nothing folds, so both streams meet this.
LEFT_IN_A_B_LIST = _multigraph(
    4, (0, 3), (3, 0), (0, 1), (0, 2), (1, 2), (2, 0), (3, 0), (1, 1)
)
# Root e0 = 0->2 reaches 1, whose two arcs to 2 both find it blocked: 1 enters
# B(2) once, and 2 closing through e4 unblocks it.
TWO_ARCS_INTO_A_B_LIST = _multigraph(3, (0, 2), (2, 1), (1, 2), (1, 2), (2, 0), (0, 0))
# Root e0 = 2->3 reaches 1, which closes 2->3->1->2 and then pushes 0, a dead
# end.  Back at 1 the count has moved since 1 was pushed, though not since 0
# was, so 1 and 0 unblock and e5 = 3->0 goes on to yield (0, 5, 1, 2).  Only
# the unfolded search meets this, as v2 is a chain vertex.
CLOSED_BEFORE_A_DEAD_END = _multigraph(4, (2, 3), (0, 1), (1, 2), (3, 1), (1, 0), (3, 0))


@given(multigraphs())
@example(STUCK_AT_A_ROOTS_END)
@example(LEFT_IN_A_B_SET)
@example(LEFT_IN_A_B_LIST)
@example(TWO_ARCS_INTO_A_B_LIST)
@example(CLOSED_BEFORE_A_DEAD_END)
def test_search_state_is_reset_between_roots_and_streams(g):
    cycles = brute_cycles(g)
    assert list(enumerate_cycles(g)) == cycles
    assert list(core_cycles(g, None, DEFAULT_MAX_CYCLES)) == cycles  # every vertex, unfolded
    for k in range(len(cycles) + 1):  # a dropped stream leaves nothing behind for the next
        assert list(islice(core_cycles(g, None, DEFAULT_MAX_CYCLES), k)) == cycles[:k]
        assert list(core_cycles(g, None, DEFAULT_MAX_CYCLES)) == cycles


def test_stuck_example_is_not_folded():
    assert STUCK_AT_A_ROOTS_END._contraction is None


def test_enumerated_cycles_are_valid(honeycomb):
    rng = random.Random(43)
    graphs = [honeycomb] + [random_graph(rng, max_vertices=5, max_edges=10) for _ in range(20)]
    for g in graphs:
        cycles = enumerate_cycles(g)
        seen = set()
        for c in cycles:
            assert is_cycle(g, c)
            assert c == canonical_rotation(c)
            assert len(c) <= len(g.vertices)
            assert c not in seen
            seen.add(c)


def test_cycle_budget(honeycomb):
    with pytest.raises(BudgetError) as exc:
        GraphAnalysis(honeycomb, max_cycles=5).cycles
    assert "5" in str(exc.value)
    assert len(GraphAnalysis(honeycomb, max_cycles=9).cycles) == 9


# ---------------------------------------------------------------------------
# basic velocities


def test_honeycomb_basic_velocities(honeycomb):
    F = Fraction
    assert basic_velocities(honeycomb) == (
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(0)),
        (F(0), F(-1, 2)),
        (F(0), F(0)),
        (F(0), F(1, 2)),
        (F(1, 2), F(0)),
        (F(1, 2), F(1, 2)),
    )


def test_zero_loop_velocity():
    g = parse_dgf("dim 1\nvertex A\nedge A A 0")
    assert basic_velocities(g) == ((Fraction(0),),)


def test_pm2_velocities(pm2):
    assert basic_velocities(pm2) == ((Fraction(-2),), (Fraction(2),))


def test_velocities_gauge_invariant():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng)
        moved = gauge_transform(g, random_gauge(g, rng))
        assert basic_velocities(g) == basic_velocities(moved)


# ---------------------------------------------------------------------------
# path decomposition


def test_decompose_short_path(honeycomb):
    dec = decompose_path(honeycomb, (0,))
    assert dec.cycles == ()
    assert dec.remainder == (0,)


def test_decompose_repeated_cycle(honeycomb):
    dec = decompose_path(honeycomb, (0, 3) * 3)
    assert len(dec.cycles) == 3
    assert dec.remainder == ()
    assert dec.cycles == ((0, 3),) * 3


def test_decompose_honeycomb_walk_bounds(honeycomb):
    rng = random.Random(17)
    walk = random_walk(honeycomb, rng, 200)
    dec = decompose_path(honeycomb, walk)
    assert dec.total_cycle_length >= 198
    leftover = path_displacement(honeycomb, dec.remainder)
    assert inf_norm(leftover) < 1 * 2  # C=1, |V|=2


def test_decompose_conservation_and_bounds():
    rng = random.Random(123)
    for _ in range(30):
        g = random_strongly_connected_graph(rng)
        walk = random_walk(g, rng, rng.randint(0, 60))
        dec = decompose_path(g, walk)
        total_len = dec.total_cycle_length + len(dec.remainder)
        assert total_len == len(walk)
        disp = [0] * g.dim
        for c in dec.cycles:
            for i, v in enumerate(path_displacement(g, c)):
                disp[i] += v
        for i, v in enumerate(path_displacement(g, dec.remainder)):
            disp[i] += v
        assert tuple(disp) == path_displacement(g, walk)
        n_vertices = len(g.vertices)
        assert 0 <= len(walk) - dec.total_cycle_length <= n_vertices
        big_c = g.max_displacement_norm
        cycles_disp = [0] * g.dim
        for c in dec.cycles:
            for i, v in enumerate(path_displacement(g, c)):
                cycles_disp[i] += v
        gap = tuple(a - b for a, b in zip(path_displacement(g, walk), cycles_disp))
        assert inf_norm(gap) < big_c * n_vertices
        for c in dec.cycles:
            assert is_cycle(g, c)


def test_decompose_invalid_path(honeycomb):
    with pytest.raises(ValueError):
        decompose_path(honeycomb, (0, 1))


@st.composite
def walks_on_a_graph(draw):
    """A random strongly connected graph of up to 7 vertices and 20 random walks
    of up to 80 edges on it, each from a random vertex."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_strongly_connected_graph(rng, max_vertices=7, max_extra_edges=8)
    return g, [random_walk(g, rng, rng.randint(0, 80), start=rng.randrange(len(g.vertices)))
               for _ in range(20)]


# |V| = 3 and the walk A->B, B->A, A->A: A->B->A is cut, which leaves one edge, the loop A->A
LOOP_LEFT_OVER = parse_dgf("dim 1\nvertex A\nvertex B\nvertex C\nedge A B 1\nedge B A 0\nedge A A 1")


@given(walks_on_a_graph())
@example((LOOP_LEFT_OVER, [(0, 1, 2)]))
def test_decompose_path_matches_the_restart_scan(case):
    g, walks = case
    for walk in walks:
        dec = decompose_path(g, walk)
        assert (list(dec.cycles), dec.remainder) == decompose_restart_scan(g, walk)
