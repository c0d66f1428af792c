from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from helpers import random_gauge, random_graph, random_strongly_connected_graph, random_walk
from oracles import brute_cycles
from velo import (
    BudgetError,
    Cycle,
    DisplacementGraph,
    Edge,
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
    assert [c.edges for c in cycles] == [
        (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)
    ]
    assert all(c.length == 2 for c in cycles)
    # counted with a distinguished start vertex these 9 become 18
    assert sum(c.length for c in cycles) == 18


def test_two_self_loops():
    g = parse_dgf("dim 1\nvertex A\nedge A A 1\nedge A A 2")
    cycles = enumerate_cycles(g)
    assert [c.edges for c in cycles] == [(0,), (1,)]


def test_directed_triangle():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nvertex C\nedge A B 0\nedge B C 0\nedge C A 1")
    cycles = enumerate_cycles(g)
    assert [c.edges for c in cycles] == [(0, 1, 2)]


def test_enumeration_matches_brute_force():
    rng = random.Random(42)
    for _ in range(150):
        g = random_graph(rng, max_vertices=5, max_edges=10, max_dim=2)
        assert [c.edges for c in enumerate_cycles(g)] == brute_cycles(g)


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


@given(multigraphs())
@example(STUCK_AT_A_ROOTS_END)
@example(LEFT_IN_A_B_SET)
def test_search_state_is_reset_between_roots_and_streams(g):
    cycles = brute_cycles(g)
    assert [c.edges for c in enumerate_cycles(g)] == cycles
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
            assert is_cycle(g, c.edges)
            assert c.is_canonical
            assert c.length <= len(g.vertices)
            assert c.edges not in seen
            seen.add(c.edges)


def test_cycle_budget(honeycomb):
    with pytest.raises(BudgetError) as exc:
        enumerate_cycles(honeycomb, max_cycles=5)
    assert "5" in str(exc.value)
    assert len(enumerate_cycles(honeycomb, max_cycles=9)) == 9


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
    assert all(c.edges == (0, 3) for c in dec.cycles)


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
            for i, v in enumerate(path_displacement(g, c.edges)):
                disp[i] += v
        for i, v in enumerate(path_displacement(g, dec.remainder)):
            disp[i] += v
        assert tuple(disp) == path_displacement(g, walk)
        n_vertices = len(g.vertices)
        assert 0 <= len(walk) - dec.total_cycle_length <= n_vertices
        big_c = g.max_displacement_norm
        cycles_disp = [0] * g.dim
        for c in dec.cycles:
            for i, v in enumerate(path_displacement(g, c.edges)):
                cycles_disp[i] += v
        gap = tuple(a - b for a, b in zip(path_displacement(g, walk), cycles_disp))
        assert inf_norm(gap) < big_c * n_vertices
        for c in dec.cycles:
            assert is_cycle(g, c.edges)


def test_decompose_invalid_path(honeycomb):
    with pytest.raises(ValueError):
        decompose_path(honeycomb, (0, 1))


def test_cycle_requires_edges():
    with pytest.raises(ValueError):
        Cycle(())
