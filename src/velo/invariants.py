"""Graph-level invariants: velocity polytopes and the connectivity verdict."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cycles import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    _displacement_sum,
    _velocities,
    enumerate_cycles,
    least_first,
)
from .errors import NotStronglyConnectedError
from .geometry import Polytope, _holds_origin_inside, convex_hull
from .graph import (
    Contraction,
    DisplacementGraph,
    IntVec,
    contract_chains,
    strongly_connected_components,
)
from .intlattice import lattice_rank_and_index

VERDICT_STRONG = "StronglyConnectedPeriodic"
VERDICT_QUOTIENT = "QuotientConnectedOnly"
VERDICT_DISCONNECTED = "Disconnected"


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

    Every field builds on the one before.  First every chain (a path through
    vertices of in-degree 1 and out-degree 1) is folded into one edge; the
    result is ``core``, which is the graph itself when nothing folds.  The
    simple cycles of ``core`` are enumerated once, so the cycle budget counts
    the cycles of the whole graph.  They are reduced to their distinct
    (displacement, length) pairs per strongly connected component, then to
    velocities, per-component polytopes and the connectivity verdict.  Only
    ``cycles`` maps them back to the graph's own edge ids.
    """

    def __init__(self, g: DisplacementGraph, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> None:
        self.graph = g
        self.max_cycles = max_cycles

    @cached_property
    def _contraction(self) -> Contraction | None:
        return contract_chains(self.graph)

    @cached_property
    def core(self) -> DisplacementGraph:
        """The graph with its chains folded, or the graph itself when it has none."""
        c = self._contraction
        return self.graph if c is None else c.graph

    @cached_property
    def sccs(self) -> tuple[tuple[int, ...], ...]:
        """SCCs of the graph, as ``strongly_connected_components`` orders them.

        A chain vertex joins its folded edge's component when both ends lie in
        it, and is a component of its own otherwise.
        """
        comps = strongly_connected_components(self.core)
        c = self._contraction
        if c is None:
            return comps
        comp_of = [0] * len(c.kept)
        for comp_id, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = comp_id
        members = [[c.kept[v] for v in comp] for comp in comps]
        edges = self.graph.edges
        for e, path in zip(c.graph.edges, c.chains):
            inner = [edges[eid].source for eid in path[1:]]
            if comp_of[e.source] == comp_of[e.target]:
                members[comp_of[e.source]].extend(inner)
            else:
                members.extend([v] for v in inner)
        return tuple(sorted((tuple(sorted(m)) for m in members), key=lambda m: m[0]))

    @cached_property
    def scc_membership(self) -> tuple[int, ...]:
        membership = [0] * len(self.graph.vertices)
        for comp_id, comp in enumerate(self.sccs):
            for v in comp:
                membership[v] = comp_id
        return tuple(membership)

    @cached_property
    def _core_cycles(self) -> tuple[Cycle, ...]:
        return enumerate_cycles(self.core, self.max_cycles)

    @property
    def cycle_count(self) -> int:
        return len(self._core_cycles)

    @cached_property
    def cycles(self) -> tuple[Cycle, ...]:
        """The graph's simple cycles in its own edge ids, as ``enumerate_cycles`` lists them."""
        c = self._contraction
        if c is None:
            return self._core_cycles
        return tuple(Cycle(p) for p in sorted(
            least_first([eid for j in cycle.edges for eid in c.chains[j]])
            for cycle in self._core_cycles
        ))

    @cached_property
    def cycle_pairs(self) -> dict[int, set[tuple[IntVec, int]]]:
        """Distinct (displacement, length) pairs of the simple cycles, keyed by component id.

        A cycle lies inside one component, that of its first edge's source.
        """
        core, c = self.core, self._contraction
        disps = [e.displacement for e in core.edges]
        if c is None:
            kept, length = range(len(core.vertices)), len
        else:
            sizes = [len(p) for p in c.chains]
            kept, length = c.kept, (lambda path: sum(map(sizes.__getitem__, path)))
        edge_scc = [self.scc_membership[kept[e.source]] for e in core.edges]
        pairs: dict[int, set[tuple[IntVec, int]]] = {}
        for cycle in self._core_cycles:
            path = cycle.edges
            pair = (_displacement_sum(disps, path), length(path))
            pairs.setdefault(edge_scc[path[0]], set()).add(pair)
        return dict(sorted(pairs.items()))

    @cached_property
    def velocities(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basic velocities: distinct displacement per step of the simple cycles, sorted."""
        return _velocities(p for pairs in self.cycle_pairs.values() for p in pairs)

    @cached_property
    def components(self) -> tuple[tuple[int, Polytope], ...]:
        """(component id, velocity polytope) for every component that has a cycle."""
        return tuple(
            (comp_id, convex_hull(_velocities(pairs), dim=self.graph.dim))
            for comp_id, pairs in self.cycle_pairs.items()
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
    def report(self) -> ConnectivityReport:
        """The connectivity verdict.

        ``cone_full`` asks whether the cycle displacements positively span
        R^d, i.e. whether the origin is interior to their hull.  Scaling each
        displacement by 1/length keeps the cone, and the hull of the velocities
        is the hull of the per-component polytopes' vertices, so those few
        vertices decide it; one component's polytope already is that hull.
        """
        g = self.graph
        displacements = sorted({d for pairs in self.cycle_pairs.values() for d, _ in pairs})
        rank, index = lattice_rank_and_index(displacements, g.dim)
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
    g: DisplacementGraph, *, max_cycles: int = DEFAULT_MAX_CYCLES
) -> ConnectivityReport:
    return GraphAnalysis(g, max_cycles=max_cycles).report


def velocity_polytope(g: DisplacementGraph, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> Polytope:
    """Convex hull of the basic velocities of a strongly connected quotient.

    A graph without cycles yields the empty polytope: no infinite trajectory
    exists at all, so there is no velocity to speak of.
    """
    return GraphAnalysis(g, max_cycles=max_cycles).polytope


def velocity_set(g: DisplacementGraph, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> VelocitySet:
    """Per-component velocity polytopes; components without cycles are omitted."""
    return VelocitySet(g.dim, GraphAnalysis(g, max_cycles=max_cycles).components)
