"""Finite-horizon trajectory machinery.

A trajectory plan weights a list of cycles and connects consecutive ones by
short quotient paths; scheduling it emits the prefix of the infinite walk
that realizes the weighted mixture of cycle velocities.  The block at stage k
repeats cycle i floor(k * weight_i / length_i) times, and stage k as a whole
is traversed k times, so the mixture error decays like 1/k.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import Sequence

from .cycles import Path, is_cycle, path_displacement
from .errors import BudgetError, NotStronglyConnectedError
from .geometry import Polytope, QVec, polytope_distance_inf
from .graph import DisplacementGraph, IntVec, strongly_connected_components

DEFAULT_PREFIX_BUDGET = 10_000_000
_STAGE_BLOCK = 1024  # stages per block of the repeat columns


@dataclass(frozen=True)
class TrajectoryPlan:
    """Weighted cycles plus connector paths from each cycle's base to the next's."""

    cycles: tuple[tuple[Path, Fraction], ...]
    connectors: tuple[Path, ...]


def empirical_velocity(g: DisplacementGraph, prefix: Sequence[int]) -> QVec:
    """Average displacement per step over a nonempty walk prefix."""
    n = len(prefix)
    if n < 1:
        raise ValueError("the empty prefix has no velocity")
    disp = path_displacement(g, tuple(prefix))
    return tuple(Fraction(c, n) for c in disp)


def _shortest_quotient_path(g: DisplacementGraph, start: int, goal: int) -> Path:
    """BFS shortest path, expanding edges in ascending id order for determinism, until
    the goal has a parent, which ``build_plan``'s strong connectivity check guarantees."""
    parent: dict[int, int] = {start: -1}
    queue: deque[int] = deque([start])
    while goal not in parent:
        for eid in g.out_edges(queue.popleft()):
            w = g.edges[eid].target
            if w not in parent:
                parent[w] = eid
                queue.append(w)
    path: list[int] = []
    while goal != start:
        path.append(parent[goal])
        goal = g.edges[path[-1]].source
    return tuple(reversed(path))


def build_plan(
    g: DisplacementGraph, weighted_cycles: Sequence[tuple[Sequence[int], Fraction]]
) -> TrajectoryPlan:
    """Attach shortest connectors between consecutive cycles of a weighted list.

    Weights must be positive rationals summing to one; the quotient must be
    strongly connected so connectors (each shorter than |V|) always exist.
    """
    if not weighted_cycles:
        raise ValueError("a plan needs at least one cycle")
    if len(strongly_connected_components(g)) != 1:
        raise NotStronglyConnectedError("trajectory plans require a strongly connected quotient")
    entries: list[tuple[Path, Fraction]] = []
    for cycle, weight in weighted_cycles:
        cycle, weight = tuple(cycle), Fraction(weight)
        if weight <= 0:
            raise ValueError("cycle weights must be positive")
        if not is_cycle(g, cycle):
            raise ValueError(f"edge sequence {cycle!r} is not a cycle of the graph")
        entries.append((cycle, weight))
    total = sum(w for _, w in entries)
    if total != 1:
        raise ValueError(f"cycle weights must sum to 1, got {total}")
    connectors: list[Path] = []
    r = len(entries)
    for i in range(r):
        here = entries[i][0]
        nxt = entries[(i + 1) % r][0]
        end = g.edges[here[-1]].target
        start = g.edges[nxt[0]].source
        connectors.append(_shortest_quotient_path(g, end, start))
    return TrajectoryPlan(tuple(entries), tuple(connectors))


def _stage_repeats(
    plan: TrajectoryPlan, k_max: int, budget: int
) -> tuple[list[list[int]], int]:
    """Per planned cycle, how often it repeats at stages 1..k_max; and the walk's length.

    The columns grow ``_STAGE_BLOCK`` stages at a time, each stage's length
    summed across them; a BudgetError names the first stage whose running
    total exceeds the budget, so no block past it is built.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    connector_length = sum(map(len, plan.connectors))
    # floor(k * weight / length) = k * p // q
    ratios = [(w.numerator, w.denominator * len(c)) for c, w in plan.cycles]
    lengths = [len(c) for c, _ in plan.cycles]
    columns: list[list[int]] = [[] for _ in ratios]
    total = 0
    for start in range(1, k_max + 1, _STAGE_BLOCK):
        ks = range(start, min(start + _STAGE_BLOCK, k_max + 1))
        block = [[k * p // q for k in ks] for p, q in ratios]
        stages = (k * (sum(map(mul, a, lengths)) + connector_length) for k, a in zip(ks, zip(*block)))
        totals = list(accumulate(stages, initial=total))
        if (total := totals[-1]) > budget:
            k = start - 1 + bisect_right(totals, budget)
            raise BudgetError(
                f"scheduled prefix would exceed the budget of {budget} edges at stage {k}"
            )
        for column, part in zip(columns, block):
            column.extend(part)
    return columns, total


def schedule(
    plan: TrajectoryPlan, k_max: int, *, budget: int = DEFAULT_PREFIX_BUDGET
) -> Path:
    """Emit the walk prefix consisting of stages 1..k_max, stage k repeated k times.

    Stage k concatenates, for each planned cycle i in order, that cycle
    floor(k * weight_i / length_i) times followed by connector i.  The result
    composes in the quotient graph because every cycle is closed.
    """
    columns, _ = _stage_repeats(plan, k_max, budget)
    blocks: list[list[int]] = []
    for repeats in zip(*columns):
        block: list[int] = []
        for i, ((cycle, _), count) in enumerate(zip(plan.cycles, repeats)):
            block.extend(cycle * count)
            block.extend(plan.connectors[i])
        blocks.append(block)
    return tuple(chain.from_iterable(
        block for k, block in enumerate(blocks, start=1) for _ in range(k)
    ))


def schedule_totals(
    g: DisplacementGraph, plan: TrajectoryPlan, k_max: int, *, budget: int = DEFAULT_PREFIX_BUDGET
) -> tuple[int, IntVec]:
    """Length and displacement of ``schedule(plan, k_max)``, without building the walk.

    Stage k adds k * (sum_i a_ki * disp(cycle_i) + sum_i disp(connector_i)),
    with a_ki = floor(k * weight_i / length_i) as in ``schedule``, which
    raises the same BudgetError at the same stage; cycle i's count
    sum_k k * a_ki is taken over its whole column at once.  Rather than every step of
    the walk, the plan is checked: each cycle must close and connector i must
    run from the base of cycle i to the base of the next (ValueError otherwise).
    """
    columns, total = _stage_repeats(plan, k_max, budget)
    cycles = [c for c, _ in plan.cycles]
    # each cycle twice, so that it closes, then its connector into the next one
    ring = [(*c, *c, *p) for c, p in zip(cycles, plan.connectors, strict=True)]
    path_displacement(g, tuple(chain(*ring, *cycles[:1])))
    counts = [sum(map(mul, range(1, k_max + 1), column)) for column in columns]
    stages = k_max * (k_max + 1) // 2  # every connector runs once per stage
    parts = [(n, path_displacement(g, path)) for n, path in
             [*zip(counts, cycles), *((stages, p) for p in plan.connectors)]]
    return total, tuple(sum(n * vec[j] for n, vec in parts) for j in range(g.dim))


def convergence_check(g: DisplacementGraph, prefix: Sequence[int], p: Polytope) -> Fraction:
    """Exact max-norm distance of the prefix velocity from the given polytope.

    For the velocity polytope of a strongly connected quotient this is
    bounded by 2 |V| C / n, with C the largest edge-displacement norm.
    """
    if p.dim != g.dim:
        raise ValueError("polytope dimension does not match the graph")
    return polytope_distance_inf(p, empirical_velocity(g, prefix))
