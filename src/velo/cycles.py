"""Simple cycles of the quotient multigraph and exact path/cycle arithmetic.

Cycles are sequences of edge ids that compose, close, and repeat no vertex,
so their length never exceeds the vertex count.  Two rotations of the same
edge sequence are the same cycle; the canonical representative is the
lexicographically smallest rotation.  A simple cycle repeats no edge, so that
rotation is the one starting at the cycle's least edge id.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError
from .graph import Contraction, DisplacementGraph, IntVec

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


def _velocities(pairs: Iterable[tuple[IntVec, int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Distinct displacement-per-step vectors of (displacement, length) pairs, sorted."""
    return tuple(sorted({tuple(Fraction(d, n) for d in disp) for disp, n in pairs}))


def canonical_rotation(edges: Sequence[int]) -> Path:
    """Rotation of the edge sequence that is lexicographically smallest.

    It starts at the least element, so only the rotations starting there are
    compared; a simple cycle repeats no edge and has just one, found in O(n).
    """
    edges = tuple(edges)
    least = min(edges, default=0)
    return min((edges[k:] + edges[:k] for k, e in enumerate(edges) if e == least), default=())


@dataclass(frozen=True)
class Cycle:
    """Closed simple cycle, stored as an edge-id sequence."""

    edges: Path

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a cycle must contain at least one edge")

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_canonical(self) -> bool:
        return self.edges == canonical_rotation(self.edges)


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


def core_cycles(
    core: DisplacementGraph, chains: Sequence[Sequence[int]] | None, max_cycles: int
) -> Iterator[Path]:
    """Every simple cycle of a chain-folded graph, as its edge ids, one at a time.

    Edge j of ``core`` stands for the original edges ``chains[j]`` (for j
    alone when ``chains`` is None); let low[j] be the least of them.  Each
    edge in turn, by ascending low, roots a search and then leaves the
    graph, so a cycle starts at its edge of least low, and the stream comes
    in the sorted order of what it unfolds to (``unfolded_cycles``), since
    ``contract_chains`` numbers each vertex's out-edges by the first ids of
    their chains.  The (max_cycles + 1)-th cycle raises BudgetError naming
    its component.

    Each search is Johnson's (1975), along the edges inside the component in
    ascending order, so it yields in lexicographic order (no simple cycle is
    a prefix of another); blocking works on vertices, so parallel edges yield
    separately.  Its blocked flags and B-sets live in per-vertex lists made
    once, and each search resets only the vertices it blocked.
    """
    edges, comp_of = core.edges, core._comp_of
    steps = [[(j, edges[j].target) for j in inside] for inside in core._inside]
    roots = range(len(edges)) if chains is None else sorted(
        range(len(edges)), key=lambda j: min(chains[j]))
    blocked = [False] * len(core.vertices)
    # Johnson's B(w): sets, so each v enters once, which keeps the delay polynomial
    unblocks: list[set[int]] = [set() for _ in core.vertices]
    count = 0
    for e0 in roots:
        root, first, _ = edges[e0]
        if comp_of[root] != comp_of[first]:
            continue
        # the root's own frame runs e0 alone; reaching the root closes a cycle
        touched, path, frames = [root], [], []
        v, it, closed = root, iter(((e0, first),)), False
        while True:
            for j, w in it:
                if w == root:
                    count += 1
                    if count > max_cycles:
                        names = ",".join(core.vertices[u] for u in core._sccs[comp_of[root]])
                        raise BudgetError(f"cycle budget of {max_cycles} exceeded "
                                          f"while exploring component {{{names}}}")
                    yield (*path, j)
                    closed = True
                elif not blocked[w]:
                    blocked[w] = True
                    touched.append(w)
                    frames.append((v, it, closed))
                    path.append(j)
                    v, it, closed = w, iter(steps[w]), False
                    break
            else:
                if not frames:
                    break
                if closed:  # unblock v, and whatever waits on it
                    pending = [v]
                    while pending:
                        u = pending.pop()
                        if blocked[u]:
                            blocked[u] = False
                            pending.extend(unblocks[u])
                            unblocks[u].clear()
                else:  # v stays blocked until one of its successors unblocks
                    for _, w in steps[v]:
                        unblocks[w].add(v)
                path.pop()
                v, it, below = frames.pop()
                closed = closed or below
        for u in touched:
            blocked[u] = False
            unblocks[u].clear()
        steps[root].remove((e0, first))


def unfolded_cycles(
    g: DisplacementGraph, fold: Contraction | None, max_cycles: int
) -> Iterator[Path]:
    """The simple cycles of ``g`` in its own edge ids, canonical and sorted, from
    the core of ``fold`` (``g`` itself when None): each core cycle's chains,
    rotated to start at its first chain's least id, which is its least id."""
    if fold is None:
        yield from core_cycles(g, None, max_cycles)
        return
    chains = fold.chains
    for cycle in core_cycles(fold.graph, chains, max_cycles):
        flat = [eid for j in cycle for eid in chains[j]]
        k = flat.index(min(chains[cycle[0]]))
        yield (*flat[k:], *flat[:k])


def enumerate_cycles(
    g: DisplacementGraph, max_cycles: int = DEFAULT_MAX_CYCLES
) -> tuple[Cycle, ...]:
    """All simple cycles, one canonical rotation each, sorted lexicographically.

    Self-loops are length-1 cycles and parallel edges yield distinct cycles.
    They stream from the graph's chain fold against ``max_cycles``; exceeding
    it raises BudgetError and no partial result is returned.
    """
    return tuple(Cycle(p) for p in unfolded_cycles(g, g._contraction, max_cycles))


def basic_velocities(
    g: DisplacementGraph, max_cycles: int = DEFAULT_MAX_CYCLES
) -> tuple[tuple[Fraction, ...], ...]:
    """Deduplicated displacement-per-step vectors of all simple cycles, sorted."""
    disps = [e.displacement for e in g.edges]
    return _velocities(
        {(_displacement_sum(disps, c.edges), c.length) for c in enumerate_cycles(g, max_cycles)}
    )


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

    cycles: tuple[Cycle, ...]
    remainder: Path

    @property
    def total_cycle_length(self) -> int:
        return sum(c.length for c in self.cycles)


def decompose_path(g: DisplacementGraph, path: Sequence[int]) -> CycleDecomposition:
    """Repeatedly excise the earliest-closing cycle until the path is shorter than |V|.

    Each pass scans for the smallest index l whose edge target revisits an
    earlier source; the cycle between the two is removed and the surrounding
    pieces recompose.  Length and displacement are conserved exactly across
    the decomposition.
    """
    _check_path(g, path)
    n_vertices = len(g.vertices)
    remaining = list(path)
    cycles: list[Cycle] = []
    while len(remaining) >= n_vertices:
        first_source: dict[int, int] = {}
        cut: tuple[int, int] | None = None
        for i, eid in enumerate(remaining):
            src = g.edges[eid].source
            if src not in first_source:
                first_source[src] = i
            tgt = g.edges[eid].target
            if tgt in first_source:
                cut = (first_source[tgt], i)
                break
        if cut is None:  # impossible by pigeonhole once len(remaining) >= |V|
            raise AssertionError("no cycle found in a path of length >= |V|")
        k, l = cut
        cycles.append(Cycle(canonical_rotation(remaining[k : l + 1])))
        del remaining[k : l + 1]
    return CycleDecomposition(tuple(cycles), tuple(remaining))
