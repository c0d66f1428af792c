"""Graph-level invariants: velocity polytopes and the connectivity verdict."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator

from .cycles import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    Path,
    _displacement_sum,
    _velocities,
    core_cycles,
    max_ratio_cycle,
    unfolded_cycles,
)
from .errors import NotStronglyConnectedError
from .geometry import Polytope, _holds_origin_inside, convex_hull, polytope_from_support
from .graph import Contraction, DisplacementGraph, IntVec, strongly_connected_components
from .intlattice import lattice_rank_and_index

VERDICT_STRONG = "StronglyConnectedPeriodic"
VERDICT_QUOTIENT = "QuotientConnectedOnly"
VERDICT_DISCONNECTED = "Disconnected"

DEFAULT_ORACLE_BUDGET = 1_000_000  # relaxations per support query


@dataclass(frozen=True)
class ConnectivityReport:
    """Structural connectivity summary of a displacement graph.

    The headline verdict distinguishes a quotient that is not even strongly
    connected (Disconnected), one whose periodic unrolling still splits into
    several components (QuotientConnectedOnly), and the fully connected case.
    The unrolling is strongly connected exactly when the quotient is, the
    cycle displacements generate all of Z^d (rank d, index 1), and the origin
    is interior to their hull so that the generated monoid is a group.
    """

    scc_count: int
    scc_membership: tuple[int, ...]
    cycle_lattice_rank: int
    lattice_index: int | None
    cone_full: bool
    verdict: str


@dataclass(frozen=True)
class VelocitySet:
    """Velocity polytopes per strongly connected component; their union is the full set."""

    dim: int
    components: tuple[tuple[int, Polytope], ...]


class GraphAnalysis:
    """The invariants of one graph, each computed lazily and at most once.

    The graph folds every chain (a path through vertices of in-degree 1 and
    out-degree 1) into one edge once and keeps the result, with its component
    table (each vertex's strongly connected component and its out-edges inside
    it), for every caller.  That fold is ``core``, which is the graph itself
    when nothing folds, and everything below is computed on it and its table.
    Each strongly connected component of ``core`` gets its velocity polytope
    from a support oracle without listing a cycle: h(u) is the largest ratio
    u.d / length over its simple cycles (``max_ratio_cycle``), and
    ``polytope_from_support`` asks it as many directions as the polytope has
    facets, and a few more.  The verdict takes its lattice from spanning-tree
    generators and its cone from those polytopes.  Only ``cycles``,
    ``cycle_stream``, ``cycle_count``, ``cycle_pairs`` and ``velocities``
    enumerate simple cycles, from one stream on ``core`` that leaves the
    search canonical and sorted, against the cycle budget; ``cycle_stream``
    reads it only as far as its caller does.  The oracle budget bounds the
    relaxations of each support query.
    """

    def __init__(
        self,
        g: DisplacementGraph,
        *,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    ) -> None:
        self.graph = g
        self.max_cycles = max_cycles
        self.oracle_budget = oracle_budget

    @cached_property
    def _contraction(self) -> Contraction | None:
        return self.graph._contraction

    @cached_property
    def core(self) -> DisplacementGraph:
        """The graph with its chains folded, or the graph itself when it has none."""
        c = self._contraction
        return self.graph if c is None else c.graph

    @cached_property
    def sccs(self) -> tuple[tuple[int, ...], ...]:
        return strongly_connected_components(self.graph)

    @property
    def scc_membership(self) -> tuple[int, ...]:
        return self.graph._comp_of

    @cached_property
    def _lengths(self) -> list[int]:
        """How many of the graph's edges each edge of ``core`` stands for."""
        c = self._contraction
        return [1] * len(self.core.edges) if c is None else [len(p) for p in c.chains]

    @property
    def cycle_count(self) -> int:
        return self.cycle_pairs.total()

    def cycle_stream(self) -> Iterator[Cycle]:
        """The graph's simple cycles in its own edge ids, as ``enumerate_cycles`` lists them."""
        return map(Cycle, unfolded_cycles(self.graph, self._contraction, self.max_cycles))

    @cached_property
    def cycles(self) -> tuple[Path, ...]:
        """The graph's simple cycles as edge-id tuples, in ``cycle_stream`` order."""
        return tuple(unfolded_cycles(self.graph, self._contraction, self.max_cycles))

    @cached_property
    def cycle_pairs(self) -> Counter[tuple[IntVec, int]]:
        """How many simple cycles have each (displacement, length) pair, from one
        pass of the core's cycle stream.

        Each core edge is coded as one integer whose balanced base-B digits
        are its length and its displacement, with B = 2m + 1 for m the larger
        of the sum of the lengths and the sum of each displacement's largest
        absolute entry.  A simple cycle uses each edge at most once, so every
        digit of its codes' sum stays within m in absolute value and decodes.
        """
        core, c, lengths = self.core, self._contraction, self._lengths
        half = max(sum(lengths), sum(max(map(abs, e.displacement)) for e in core.edges))
        base = 2 * half + 1
        codes = [sum(x * base**i for i, x in enumerate((n, *e.displacement)))
                 for e, n in zip(core.edges, lengths)]
        packed = Counter(sum(map(codes.__getitem__, cycle))
                         for cycle in core_cycles(core, c and c.chains, self.max_cycles))

        def unpack(code: int) -> tuple[IntVec, int]:
            digits = []
            for _ in range(core.dim + 1):
                digits.append((code + half) % base - half)
                code = (code - digits[-1]) // base
            return tuple(digits[1:]), digits[0]

        return Counter({unpack(code): count for code, count in packed.items()})

    @cached_property
    def velocities(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basic velocities: distinct displacement per step of the simple cycles, sorted."""
        return _velocities(self.cycle_pairs)

    @cached_property
    def _pieces(self) -> tuple[tuple[int, tuple[int, ...], list[int]], ...]:
        """(component id, core vertices, ids of the core edges inside) of every
        component of ``core`` with an edge inside, that is, with a cycle."""
        core, c = self.core, self._contraction
        kept = c.kept if c else range(len(core.vertices))
        pieces = []
        for comp in core._sccs:
            # ascending ids, the order in which the support oracle relaxes its
            # arcs, so that its relaxation counts stay those its budget names
            inside = sorted(eid for v in comp for eid in core._inside[v])
            if inside:
                pieces.append((self.scc_membership[kept[comp[0]]], comp, inside))
        return tuple(sorted(pieces))  # by the graph's component id

    def _support(self, comp: tuple[int, ...], inside: list[int]):
        """The support function of one component's velocity polytope."""
        local = {v: i for i, v in enumerate(comp)}
        edges = [self.core.edges[eid] for eid in inside]
        arcs = [(local[e.source], local[e.target]) for e in edges]
        disps = [e.displacement for e in edges]
        lengths = [self._lengths[eid] for eid in inside]
        where = ",".join(self.core.vertices[v] for v in comp)

        def support(u: tuple[int, ...]) -> tuple[IntVec, int]:
            weights = [sum(map(mul, u, d)) for d in disps]
            cycle = max_ratio_cycle(arcs, weights, lengths, self.oracle_budget, where)
            return _displacement_sum(disps, cycle), sum(lengths[a] for a in cycle)

        return support

    @cached_property
    def components(self) -> tuple[tuple[int, Polytope], ...]:
        """(component id, velocity polytope) for every component that has a cycle."""
        return tuple(
            (comp_id, polytope_from_support(self._support(comp, inside), self.graph.dim))
            for comp_id, comp, inside in self._pieces
        )

    @cached_property
    def polytope(self) -> Polytope:
        """Velocity polytope of a strongly connected quotient; empty when it has no cycle."""
        count = len(self.sccs)
        if count > 1:
            raise NotStronglyConnectedError(
                f"quotient graph has {count} strongly connected components; use velocity_set"
            )
        return self.components[0][1] if self.components else Polytope(self.graph.dim, ())

    @cached_property
    def _cycle_generators(self) -> list[IntVec]:
        """Vectors spanning the lattice of cycle displacements: d(e) + p(source)
        - p(target) over the edges inside each component, p summed along a
        spanning tree.  They span it because in a strongly connected graph the
        cycles span the integer cycle space: f = (f + N c) - N c for a positive
        circulation c and N large."""
        core, rows = self.core, set()
        for _, comp, inside in self._pieces:
            potential, tree = {comp[0]: (0,) * core.dim}, [comp[0]]
            for v in tree:  # grows while it is read: a breadth-first tree
                for eid in core._inside[v]:
                    s, t, d = core.edges[eid]
                    if t not in potential:
                        potential[t] = tuple(map(sum, zip(potential[s], d)))
                        tree.append(t)
            for eid in inside:
                s, t, d = core.edges[eid]
                rows.add(tuple(a + b - c for a, b, c in zip(d, potential[s], potential[t])))
        return sorted(rows)

    @cached_property
    def report(self) -> ConnectivityReport:
        """The connectivity verdict.

        ``cone_full`` asks whether the cycle displacements positively span
        R^d, i.e. whether the origin is interior to their hull.  Scaling each
        displacement by 1/length keeps the cone, and the hull of the velocities
        is the hull of the per-component polytopes' vertices, so those few
        vertices decide it; one component's polytope already is that hull.
        """
        g = self.graph
        rank, index = lattice_rank_and_index(self._cycle_generators, g.dim)
        if len(self.components) == 1:
            hull = self.components[0][1]
        else:
            hull = convex_hull([v for _, poly in self.components for v in poly.vertices], dim=g.dim)
        cone_full = _holds_origin_inside(hull)
        if len(self.sccs) > 1:
            verdict = VERDICT_DISCONNECTED
        elif rank == g.dim and index == 1 and cone_full:
            verdict = VERDICT_STRONG
        else:
            verdict = VERDICT_QUOTIENT
        return ConnectivityReport(
            scc_count=len(self.sccs),
            scc_membership=self.scc_membership,
            cycle_lattice_rank=rank,
            lattice_index=index,
            cone_full=cone_full,
            verdict=verdict,
        )


def connectivity_report(
    g: DisplacementGraph, *, budget: int = DEFAULT_ORACLE_BUDGET
) -> ConnectivityReport:
    return GraphAnalysis(g, oracle_budget=budget).report


def velocity_polytope(g: DisplacementGraph, *, budget: int = DEFAULT_ORACLE_BUDGET) -> Polytope:
    """Convex hull of the basic velocities of a strongly connected quotient.

    A graph without cycles yields the empty polytope: no infinite trajectory
    exists at all, so there is no velocity to speak of.  ``budget`` bounds the
    support oracle's relaxations.
    """
    return GraphAnalysis(g, oracle_budget=budget).polytope


def velocity_set(g: DisplacementGraph, *, budget: int = DEFAULT_ORACLE_BUDGET) -> VelocitySet:
    """Per-component velocity polytopes; components without cycles are omitted."""
    return VelocitySet(g.dim, GraphAnalysis(g, oracle_budget=budget).components)
