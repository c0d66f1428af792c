from __future__ import annotations

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import random_gauge, random_strongly_connected_graph, random_walk
from oracles import bfs_path, stage_totals
from velo import (
    BudgetError,
    DisplacementGraph,
    NotStronglyConnectedError,
    TrajectoryPlan,
    build_plan,
    convergence_check,
    empirical_velocity,
    enumerate_cycles,
    gauge_transform,
    parse_dgf,
    path_displacement,
    polytope_distance_inf,
    schedule,
    schedule_totals,
    velocity_polytope,
)
from velo.graph import inf_norm

F = Fraction


def _cycle_velocity(g, cycle):
    disp = path_displacement(g, cycle)
    return tuple(F(c, len(cycle)) for c in disp)


# ---------------------------------------------------------------------------
# empirical velocity


def test_empirical_velocity_repeated_cycle(honeycomb):
    # A->B with (0,1) then B->A with (1,0), five times over
    prefix = (1, 5) * 5
    assert empirical_velocity(honeycomb, prefix) == (F(1, 2), F(1, 2))


def test_empirical_velocity_constant_loop():
    g = parse_dgf("dim 1\nvertex A\nedge A A 0")
    assert empirical_velocity(g, (0,) * 7) == (F(0),)


def test_empirical_velocity_definition(honeycomb):
    rng = random.Random(9)
    for _ in range(10):
        prefix = random_walk(honeycomb, rng, rng.randint(1, 40))
        v = empirical_velocity(honeycomb, prefix)
        n = len(prefix)
        assert tuple(c * n for c in v) == path_displacement(honeycomb, prefix)


def test_empirical_velocity_empty_prefix(honeycomb):
    with pytest.raises(ValueError):
        empirical_velocity(honeycomb, ())


# ---------------------------------------------------------------------------
# plans


def test_plan_rejects_a_non_cycle(honeycomb):
    with pytest.raises(ValueError, match="is not a cycle of the graph"):
        build_plan(honeycomb, [((0,), F(1))])  # A->B does not close


def test_plan_single_cycle_empty_connector(honeycomb):
    c = enumerate_cycles(honeycomb)[0]
    plan = build_plan(honeycomb, [(c, F(1))])
    assert plan.connectors == ((),)


def test_plan_two_cycles_sharing_start(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[0], F(1, 2)), (cycles[4], F(1, 2))])
    assert plan.connectors == ((), ())


def test_plan_keeps_exact_weights(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[0], F(1, 3)), (cycles[1], F(2, 3))])
    assert [w for _, w in plan.cycles] == [F(1, 3), F(2, 3)]


def test_plan_validation(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    with pytest.raises(ValueError):
        build_plan(honeycomb, [(cycles[0], F(1, 2))])  # weights do not sum to 1
    with pytest.raises(ValueError):
        build_plan(honeycomb, [(cycles[0], F(0)), (cycles[1], F(1))])  # nonpositive
    with pytest.raises(ValueError):
        build_plan(honeycomb, [])
    broken = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 0")
    with pytest.raises(NotStronglyConnectedError):
        build_plan(broken, [(cycles[0], F(1))])


def test_plan_connectors_short_and_composing():
    rng = random.Random(14)
    for _ in range(20):
        g = random_strongly_connected_graph(rng)
        cycles = enumerate_cycles(g)
        if len(cycles) < 2:
            continue
        chosen = [cycles[0], cycles[-1]]
        plan = build_plan(g, [(chosen[0], F(1, 2)), (chosen[1], F(1, 2))])
        for conn in plan.connectors:
            assert len(conn) < len(g.vertices)
        prefix = schedule(plan, 6)
        path_displacement(g, prefix)  # raises if anything fails to compose


@given(st.integers(0, 2**32 - 1))
def test_plan_connectors_match_a_reference_bfs(seed):
    # copies of random edges, shuffled in with the rest, so parallel edges come in either id order
    rng = random.Random(seed)
    g = random_strongly_connected_graph(rng, max_vertices=7, max_extra_edges=8)
    edges = [*g.edges, *(rng.choice(g.edges) for _ in range(rng.randint(1, 4)))]
    rng.shuffle(edges)
    g = DisplacementGraph(g.dim, g.vertices, tuple(edges))
    based = []  # a simple cycle based at each vertex: a random out-edge, then the way back
    for u in range(len(g.vertices)):
        first = rng.choice(g.out_edges(u))
        based.append((first, *bfs_path(g, g.edges[first].target, u)))
    for u, v in product(range(len(g.vertices)), repeat=2):
        plan = build_plan(g, [(based[u], F(1, 2)), (based[v], F(1, 2))])
        assert plan.connectors == (bfs_path(g, u, v), bfs_path(g, v, u))


# ---------------------------------------------------------------------------
# scheduling


def test_schedule_hand_trace():
    # one unit loop, weight 1: stage 1 emits the loop once, stage 2 twice,
    # stage 2 runs twice, so the prefix is 1 + 2 + 2 = 5 edges long
    g = parse_dgf("dim 1\nvertex A\nedge A A 1")
    c = enumerate_cycles(g)[0]
    plan = build_plan(g, [(c, F(1))])
    assert schedule(plan, 2) == (0, 0, 0, 0, 0)
    assert schedule_totals(g, plan, 2) == (5, (5,))


def test_schedule_length_formula(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[2], F(1, 3)), (cycles[3], F(2, 3))])
    k_max = 9
    prefix = schedule(plan, k_max)
    expected = 0
    for k in range(1, k_max + 1):
        stage = sum(len(p) for p in plan.connectors)
        for cycle, weight in plan.cycles:
            stage += math.floor(k * weight / len(cycle)) * len(cycle)
        expected += k * stage
    assert len(prefix) == expected


def test_schedule_budget(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[0], F(1))])
    with pytest.raises(BudgetError):
        schedule(plan, 100, budget=50)


def test_schedule_converges_to_mixture(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    # velocities (1/2, 0) and (0, 1/2)
    plan = build_plan(honeycomb, [(cycles[2], F(1, 2)), (cycles[3], F(1, 2))])
    prefix = schedule(plan, 40)
    v = empirical_velocity(honeycomb, prefix)
    gap = max(abs(a - b) for a, b in zip(v, (F(1, 4), F(1, 4))))
    assert gap <= F(1, 20)


def test_schedule_holds_one_copy_of_the_walk(square):
    cycles = enumerate_cycles(square)
    plan = build_plan(square, [(cycles[0], F(1, 2)), (cycles[1], F(1, 4)), (cycles[2], F(1, 4))])
    tracemalloc.start()
    try:
        prefix = schedule(plan, 64)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        empirical_velocity(square, prefix)
        _, velocity_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(prefix)
    assert len(prefix) == 87376
    # a list of the whole walk next to the tuple would make the peak twice the tuple
    assert peak < 1.5 * size
    # checking that consecutive edges compose must not copy the walk
    assert velocity_peak - before < 0.5 * size


def test_schedule_k_max_validation(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[0], F(1))])
    with pytest.raises(ValueError):
        schedule(plan, 0)
    with pytest.raises(ValueError):
        schedule_totals(honeycomb, plan, 0)


# ---------------------------------------------------------------------------
# closed-form totals


def _budget_error(fn, *args, **kwargs) -> str:
    with pytest.raises(BudgetError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def _random_plan(rng):
    """A strongly connected random graph and a plan of 1-3 of its cycles with random weights."""
    g = random_strongly_connected_graph(rng)
    cycles = enumerate_cycles(g)
    chosen = rng.sample(cycles, rng.randint(1, min(3, len(cycles))))
    parts = [rng.randint(1, 6) for _ in chosen]
    return g, build_plan(g, [(c, F(p, sum(parts))) for c, p in zip(chosen, parts)])


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_schedule_totals_match_the_walk(seed, k_max):
    rng = random.Random(seed)
    g, plan = _random_plan(rng)
    prefix = schedule(plan, k_max)
    n = len(prefix)
    assert schedule_totals(g, plan, k_max) == (n, path_displacement(g, prefix))
    assert schedule_totals(g, plan, k_max, budget=n)[0] == n
    if n:
        for budget in (n - 1, rng.randrange(n)):
            assert _budget_error(schedule_totals, g, plan, k_max, budget=budget) == _budget_error(
                schedule, plan, k_max, budget=budget
            )


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_scheduled_velocity_lies_in_the_polytope(seed, k_max):
    # each stage is a closed walk (its cycles, each followed by the connector
    # to the next cycle's base, the last back to the first), so the prefix
    # splits into simple cycles and its velocity, a mixture of theirs, is in
    # P; on a flat P (about 40% of these graphs) this takes the hull branch
    g, plan = _random_plan(random.Random(seed))
    steps, displacement = schedule_totals(g, plan, k_max)
    assume(steps)
    velocity = tuple(F(c, steps) for c in displacement)
    assert polytope_distance_inf(velocity_polytope(g), velocity) == 0


def test_schedule_totals_empty_walk():
    # stage k repeats the 2-cycle floor(k / 4) times and the loop floor(k / 2)
    # times, and both start at A, so stage 1 is empty
    g = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 1\nedge B A 0\nedge A A 3")
    plan = build_plan(g, [((0, 1), F(1, 2)), ((2,), F(1, 2))])
    assert schedule(plan, 1) == ()
    assert schedule_totals(g, plan, 1) == (0, (0,))
    # stage 4 holds the 2-cycle once and the loop twice: 4 * 1 + (2 + 3 + 4 * 2) * 3
    assert schedule_totals(g, plan, 4) == (21, (43,))


def test_schedule_totals_check_the_plan(honeycomb):
    # A -e0-> B -e3-> A and B -e3-> A -e0-> B start at different vertices, so
    # an empty connector does not join them; e0 alone does not close
    loops = ((0, 3), (3, 0))
    halves = tuple((c, F(1, 2)) for c in loops)
    bad = [
        TrajectoryPlan(halves, ((), ())),
        TrajectoryPlan(halves, ((0,), ())),  # only the way back fails
        TrajectoryPlan((((0,), F(1)),), ((),)),
        TrajectoryPlan((((0,), F(1, 2)), (loops[0], F(1, 2))), ((3,), ())),
        TrajectoryPlan(((loops[0], F(1)),), ((7,),)),
    ]
    for plan in bad:
        with pytest.raises(ValueError):
            path_displacement(honeycomb, schedule(plan, 8))  # the walk fails to compose
        with pytest.raises(ValueError):
            schedule_totals(honeycomb, plan, 8)
    good = TrajectoryPlan(halves, ((0,), (3,)))
    assert schedule_totals(honeycomb, good, 3) == (
        len(schedule(good, 3)), path_displacement(honeycomb, schedule(good, 3))
    )


def _two_cycle_plan(g):
    cycles = enumerate_cycles(g)
    return build_plan(g, [(cycles[2], F(1, 3)), (cycles[3], F(2, 3))])


# the repeat counts are summed a block of 1,024 stages at a time
@pytest.mark.parametrize("k_max", [1023, 1024, 1025, 2049])
def test_schedule_totals_across_stage_blocks(honeycomb, k_max):
    plan = _two_cycle_plan(honeycomb)
    expected = stage_totals(honeycomb, plan, k_max, 10**12)
    assert schedule_totals(honeycomb, plan, k_max, budget=10**12) == expected


def test_budget_runs_out_on_either_side_of_a_stage_block(honeycomb):
    plan = _two_cycle_plan(honeycomb)
    length = {k: stage_totals(honeycomb, plan, k, 10**12)[0] for k in (1023, 1024, 1025)}
    budgets = [length[1023], length[1024] - 1, length[1024], length[1025] - 1, length[1025]]
    stages = [stage_totals(honeycomb, plan, 2049, budget) for budget in budgets]
    assert stages == [1024, 1024, 1025, 1025, 1026]
    for budget, stage in zip(budgets, stages):
        message = f"scheduled prefix would exceed the budget of {budget} edges at stage {stage}"
        assert _budget_error(schedule_totals, honeycomb, plan, 2049, budget=budget) == message
        assert _budget_error(schedule, plan, 2049, budget=budget) == message


def test_budget_bounds_the_stages_summed_not_k_max(honeycomb):
    # a k_max of 10**12 must cost no more than the stages up to the one the budget stops
    plan = _two_cycle_plan(honeycomb)
    stage = stage_totals(honeycomb, plan, 10**12, 10**5)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        message = _budget_error(schedule_totals, honeycomb, plan, 10**12, budget=10**5)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert message == f"scheduled prefix would exceed the budget of 100000 edges at stage {stage}"
    assert elapsed < 1
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# convergence bound


def test_convergence_zero_for_pure_cycle(honeycomb):
    poly = velocity_polytope(honeycomb)
    assert convergence_check(honeycomb, (0, 3) * 6, poly) == 0


def test_convergence_bound_random_walk(honeycomb):
    poly = velocity_polytope(honeycomb)
    rng = random.Random(10)
    walk = random_walk(honeycomb, rng, 100)
    # C = 1 and |V| = 2 for this fixture
    assert convergence_check(honeycomb, walk, poly) < F(2 * 2 * 1, 100)


def test_convergence_zero_on_scheduled_prefix(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    plan = build_plan(honeycomb, [(cycles[2], F(2, 5)), (cycles[6], F(3, 5))])
    prefix = schedule(plan, 12)
    poly = velocity_polytope(honeycomb)
    # connectors are empty, so the prefix is a mixture of whole cycles
    assert convergence_check(honeycomb, prefix, poly) == 0


def test_convergence_dimension_mismatch(honeycomb, pm2):
    poly = velocity_polytope(pm2)
    with pytest.raises(ValueError):
        convergence_check(honeycomb, (0, 3), poly)


def test_velocity_base_independence_bound():
    rng = random.Random(11)
    for _ in range(15):
        g = random_strongly_connected_graph(rng)
        gauge = random_gauge(g, rng)
        moved = gauge_transform(g, gauge)
        n = rng.randint(5, 40)
        walk = random_walk(g, rng, n)
        v1 = empirical_velocity(g, walk)
        v2 = empirical_velocity(moved, walk)
        bound = F(2 * max(inf_norm(vec) for vec in gauge), n)
        assert max(abs(a - b) for a, b in zip(v1, v2)) <= bound
