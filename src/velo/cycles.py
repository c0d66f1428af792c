"""Simple cycles of the quotient multigraph and exact path/cycle arithmetic.

A simple cycle is a ``Path``, the tuple of its edge ids, that composes,
closes, and repeats no vertex, so its length never exceeds the vertex count.  Two rotations of the same
edge sequence are the same cycle; the canonical representative is the
lexicographically smallest rotation.  A simple cycle repeats no edge, so that
rotation is the one starting at the cycle's least edge id.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .errors import BudgetError
from .graph import DisplacementGraph, IntVec

Path = tuple[int, ...]

DEFAULT_MAX_CYCLES = 1_000_000


def _check_path(g: DisplacementGraph, path: Sequence[int]) -> None:
    for eid in path:
        if not (0 <= eid < len(g.edges)):
            raise ValueError(f"edge id {eid} out of range")
    for a, b in zip(path, islice(path, 1, None)):
        if g.edges[a].target != g.edges[b].source:
            raise ValueError(f"edges {a} and {b} do not compose")


def path_displacement(g: DisplacementGraph, path: Sequence[int]) -> IntVec:
    """Sum of edge displacements along a composing path; zero vector for the empty path."""
    _check_path(g, path)
    total = [0] * g.dim
    for eid in path:
        for i, c in enumerate(g.edges[eid].displacement):
            total[i] += c
    return tuple(total)


def _displacement_sum(disps: Sequence[IntVec], path: Sequence[int]) -> IntVec:
    """Sum of ``disps[eid]`` over a path already known to compose (one edge at least)."""
    return tuple(map(sum, zip(*[disps[eid] for eid in path])))


def canonical_rotation(edges: Sequence[int]) -> Path:
    """Rotation of the edge sequence that is lexicographically smallest.

    It starts at the least element, so only the rotations starting there are
    compared; a simple cycle repeats no edge and has just one, found in O(n).
    """
    edges = tuple(edges)
    least = min(edges, default=0)
    return min((edges[k:] + edges[:k] for k, e in enumerate(edges) if e == least), default=())


def is_cycle(g: DisplacementGraph, edges: Sequence[int]) -> bool:
    """True when the edge sequence composes, closes, and repeats no vertex."""
    if not edges:
        return False
    try:
        _check_path(g, edges)
    except ValueError:
        return False
    if g.edges[edges[-1]].target != g.edges[edges[0]].source:
        return False
    sources = [g.edges[eid].source for eid in edges]
    return len(set(sources)) == len(sources)


def core_cycles(core: DisplacementGraph, chains: Sequence[Sequence[int]] | None,
                max_cycles: int, twins: Sequence[int] | None = None) -> Iterator[Path]:
    """Every simple cycle of a chain-folded graph, as its edge ids, one at a time.

    Edge j of ``core`` stands for the original edges ``chains[j]`` (for j
    alone when ``chains`` is None); let low[j] be the least of them.  Each
    edge in turn, by ascending low, roots a search and then leaves the
    graph, so a cycle starts at its edge of least low, and the stream comes
    in the sorted order of what it unfolds to (``_unfold``), since
    ``contract_chains`` numbers each vertex's out-edges by the first ids of
    their chains.  The (max_cycles + 1)-th cycle raises BudgetError naming
    its component.

    With ``twins`` (``GraphAnalysis._twins``: each edge's reverse, or -1),
    a root's twin leaves the graph with it and a root whose twin has left is
    skipped, so each pair {C, reverse of C} is searched from the least edge
    of both: C alone, standing for both (the budget counts two), unless C
    closes through the root's twin, when C and its reverse come from that
    one search.  On overflow the plain stream is replayed, to raise there.

    Each search is Johnson's (1975), along the edges inside the component in
    ascending order, so it yields in lexicographic order (no simple cycle is
    a prefix of another); blocking works on vertices, so parallel edges yield
    separately.  A vertex has closed a cycle when ``count`` has moved since
    its frame was pushed.  Its blocked flags and B-lists live in per-vertex
    lists made once per stream, each B-list made on first use, and each
    search resets only the vertices it reached.
    """
    edges, comp_of = core.edges, core._comp_of
    steps = [[(j, edges[j].target) for j in inside] for inside in core._inside]
    roots = range(len(edges)) if chains is None else sorted(
        range(len(edges)), key=lambda j: min(chains[j]))
    blocked = [False] * len(core.vertices)
    # Johnson's B(w), None until first used; each v enters once, which keeps the delay polynomial
    unblocks: list[list[int] | None] = [None] * len(core.vertices)
    count, searched = 0, set()
    for e0 in roots:
        root, first, _ = edges[e0]
        twin = -1 if twins is None else twins[e0]
        if comp_of[root] != comp_of[first] or twin in searched:
            continue
        # the root's own frame runs e0 alone; reaching the root closes a cycle
        touched, path, frames = [root], [], []
        v, it, mark = root, iter(((e0, first),)), count
        while True:
            for j, w in it:
                if w == root:
                    count += 1 + (0 <= twin != j)
                    if count > max_cycles:
                        if twins is not None:
                            for _ in core_cycles(core, chains, max_cycles):
                                pass
                        names = ",".join(core.vertices[u] for u in core._sccs[comp_of[root]])
                        raise BudgetError(f"cycle budget of {max_cycles} exceeded "
                                          f"while exploring component {{{names}}}")
                    yield (*path, j)
                elif not blocked[w]:
                    blocked[w] = True
                    touched.append(w)
                    frames.append((v, it, mark))
                    path.append(j)
                    v, it, mark = w, iter(steps[w]), count
                    break
            else:
                if not frames:
                    break
                if count != mark:  # unblock v, and whatever waits on it
                    blocked[v] = False
                    pending, unblocks[v] = unblocks[v], None
                    while pending:
                        u = pending.pop()
                        if blocked[u]:
                            blocked[u] = False
                            if unblocks[u]:
                                pending += unblocks[u]
                                unblocks[u] = None
                else:  # v stays blocked until one of its successors unblocks
                    for _, w in steps[v]:
                        waiting = unblocks[w]
                        if waiting is None:
                            unblocks[w] = [v]
                        elif v not in waiting:
                            waiting.append(v)
                path.pop()
                v, it, mark = frames.pop()
        for u in touched:
            blocked[u] = False
            unblocks[u] = None
        steps[root].remove((e0, first))
        if 0 <= twin != e0:
            steps[first].remove((twin, root))
        searched.add(e0)


def _unfold(chains: Sequence[Sequence[int]], cycles: Iterator[Path]) -> Iterator[Path]:
    """Core cycles as their chains' edge ids, each rotated to start at its least id."""
    for cycle in cycles:
        flat = [eid for j in cycle for eid in chains[j]]
        k = flat.index(min(chains[cycle[0]]))
        yield (*flat[k:], *flat[:k])


def enumerate_cycles(g: DisplacementGraph) -> tuple[Path, ...]:
    """All simple cycles, one canonical rotation each, sorted lexicographically:
    ``GraphAnalysis(g).cycles`` under the default cycle budget, past which it raises
    BudgetError and returns nothing.  Self-loops are length-1 cycles and parallel
    edges yield distinct cycles."""
    from .invariants import GraphAnalysis  # velo.invariants imports this module

    return GraphAnalysis(g).cycles


def basic_velocities(g: DisplacementGraph) -> tuple[tuple[Fraction, ...], ...]:
    """Deduplicated displacement-per-step vectors of all simple cycles, sorted:
    ``GraphAnalysis.velocities``, the routine ``velo report`` prints."""
    from .invariants import GraphAnalysis  # velo.invariants imports this module

    return GraphAnalysis(g).velocities


def max_ratio_cycle(
    arcs: Sequence[tuple[int, int]],
    weights: Sequence[int],
    lengths: Sequence[int],
    budget: int,
    where: str,
) -> list[int]:
    """The arc ids of a simple cycle with the largest sum(weights) / sum(lengths)
    in a strongly connected graph.

    ``arcs`` are (source, target) pairs over the vertices 0..n-1; every length
    is positive.  Cycle improvement (Dasdan 2004), in integers: with W/T the
    best ratio so far, Bellman-Ford from a zero start relaxes the weights
    T*w - W*t, and after each pass that raised a distance the predecessor
    graph is searched for a cycle, which then has positive weight, i.e. a
    ratio above W/T.  A pass that raises nothing proves W/T the maximum, and
    the ratio grows strictly over finitely many simple cycles, so the loop
    ends.  It starts from a cycle that each vertex's best arc by w/t closes.
    More than ``budget`` relaxations (distance raises) in one call raise
    BudgetError naming ``where``; each run makes at most one pass more than
    it relaxes, so the work stays within (2 * budget + 1) * len(arcs) steps.
    """
    sources = [s for s, _ in arcs]
    n = max(sources) + 1
    best: list[int] = [-1] * n
    for a, s in enumerate(sources):
        b = best[s]
        if b < 0 or weights[a] * lengths[b] > weights[b] * lengths[a]:
            best[s] = a
    cycle = next(_functional_cycles(best, [t for _, t in arcs]))
    relaxed = 0
    while True:
        w = sum(weights[a] for a in cycle)
        t = sum(lengths[a] for a in cycle)
        gain = [(s, v, a, t * x - w * y)
                for a, ((s, v), x, y) in enumerate(zip(arcs, weights, lengths))]
        dist, pred = [0] * n, [-1] * n
        while True:
            before = relaxed
            for s, v, a, g in gain:
                d = dist[s] + g
                if d > dist[v]:
                    dist[v], pred[v] = d, a
                    relaxed += 1
            if relaxed == before:
                return cycle
            if relaxed > budget:
                raise BudgetError(
                    f"oracle budget of {budget} relaxations exceeded: a support query "
                    f"made {relaxed} in component {{{where}}}"
                )
            better = next(_functional_cycles(pred, sources), None)
            if better is not None:
                cycle = better
                break


def _functional_cycles(choice: Sequence[int], ends: Sequence[int]):
    """The cycles of the map v -> ends[choice[v]] (undefined where choice[v] < 0),
    each as the list of its chosen arcs."""
    mark = [-1] * len(choice)
    for start in range(len(choice)):
        v = start
        while v >= 0 and mark[v] < 0:
            mark[v] = start
            v = ends[choice[v]] if choice[v] >= 0 else -1
        if v >= 0 and mark[v] == start:
            cycle, u = [], v
            while True:
                cycle.append(choice[u])
                u = ends[choice[u]]
                if u == v:
                    break
            yield cycle


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles excised from a path plus the short remaining path."""

    cycles: tuple[Path, ...]
    remainder: Path

    @property
    def total_cycle_length(self) -> int:
        return sum(map(len, self.cycles))


def decompose_path(g: DisplacementGraph, path: Sequence[int]) -> CycleDecomposition:
    """Excise the earliest-closing cycle, left to right, until the path left is shorter than |V|.

    What is read and not cut is a simple path, a stack with each source's
    position; an edge whose target is one of them cuts the cycle above it.  The
    remainder, the stack and the unread edges, may still hold a cycle.  Length
    and displacement are conserved exactly across the decomposition.
    """
    _check_path(g, path)
    edges, n_vertices = g.edges, len(g.vertices)
    stack: list[int] = []
    position: dict[int, int] = {}
    cycles: list[Path] = []
    for i, eid in enumerate(path):
        if len(stack) + len(path) - i < n_vertices:
            return CycleDecomposition(tuple(cycles), (*stack, *path[i:]))
        source, target, _ = edges[eid]
        position[source] = len(stack)
        stack.append(eid)
        k = position.get(target)
        if k is not None:
            cycles.append(canonical_rotation(stack[k:]))
            for cut in stack[k:]:
                del position[edges[cut].source]
            del stack[k:]
    return CycleDecomposition(tuple(cycles), tuple(stack))
