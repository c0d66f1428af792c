"""Displacement graphs: parsing, structure, gauge moves, and windowed BFS.

A displacement graph is a finite directed multigraph whose edges carry
integer displacement vectors of a fixed dimension.  Unrolling it over the
integer lattice yields an infinite periodic graph.  ``bfs_distance`` measures
exact shortest paths in the finite window of it given by the graph and a
radius, and ``gamma_norm_oracle`` turns them into growth-norm samples.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter, mul
from typing import Mapping, NamedTuple, Sequence

from .errors import BudgetError, DgfError, NotStronglyConnectedError, UnreachableError

IntVec = tuple[int, ...]

DEFAULT_PATCH_BUDGET = 5_000_000


def inf_norm(vec: Sequence[int]) -> int:
    """Max absolute entry; 0 for the empty vector."""
    return max((abs(c) for c in vec), default=0)


class Edge(NamedTuple):
    source: int
    target: int
    displacement: IntVec


# Edge from one (source, target, displacement) triple, without the Python-level
# call of Edge.__new__: parse_dgf and realize build every edge with it.
_edge = partial(tuple.__new__, Edge)


@dataclass(frozen=True)
class DisplacementGraph:
    """Finite directed multigraph with an integer displacement per edge.

    Vertices are addressed by index; names, ASCII identifiers as in DGF, are
    kept for I/O.  Parallel edges and self-loops are permitted and stay
    distinct (an edge's identity is its index in ``edges``).  Instances are
    immutable and safe to share.
    """

    dim: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not self.vertices:
            raise ValueError("graph must declare at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex names must be unique")
        for name in self.vertices:  # the parser's rule, so serialize_dgf's text parses
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"invalid vertex name {name!r}")
        n, dim = len(self.vertices), self.dim
        for i, (source, target, disp) in enumerate(self.edges):
            if not (0 <= source < n and 0 <= target < n):
                raise ValueError(f"edge {i} references an invalid vertex index")
            if len(disp) != dim:
                raise ValueError(f"edge {i} displacement has {len(disp)} entries, expected {dim}")

    @cached_property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for eid, e in enumerate(self.edges):
            out[e.source].append(eid)
        return tuple(tuple(lst) for lst in out)

    def out_edges(self, v: int) -> tuple[int, ...]:
        """Edge ids leaving vertex ``v``, in ascending id order."""
        return self._out[v]

    @cached_property
    def _contraction(self) -> Contraction | None:
        return contract_chains(self)

    @cached_property
    def _sccs(self) -> tuple[tuple[int, ...], ...]:
        """Tarjan runs on the folded core only (which folds no further: it has no
        chain vertex).  A chain vertex joins its folded edge's component when both
        ends lie in it, and is a component of its own otherwise."""
        c = self._contraction
        if c is None:
            succ = [sorted({self.edges[eid].target for eid in out}) for out in self._out]
            members = _tarjan(succ)
        else:
            comp_of = c.graph._comp_of
            members = [[c.kept[v] for v in comp] for comp in c.graph._sccs]
            for e, path in zip(c.graph.edges, c.chains):
                inner = [self.edges[eid].source for eid in path[1:]]
                if comp_of[e.source] == comp_of[e.target]:
                    members[comp_of[e.source]].extend(inner)
                else:
                    members.extend([v] for v in inner)
        return tuple(sorted((tuple(sorted(m)) for m in members), key=lambda m: m[0]))

    @cached_property
    def _comp_of(self) -> tuple[int, ...]:
        """The index in ``_sccs`` of each vertex's component."""
        comp_of = [0] * len(self.vertices)
        for k, comp in enumerate(self._sccs):
            for v in comp:
                comp_of[v] = k
        return tuple(comp_of)

    @cached_property
    def _inside(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ids of its out-edges whose target lies in its
        component, ascending: the edges that can lie on a cycle."""
        comp_of, edges = self._comp_of, self.edges
        return tuple(tuple(eid for eid in out if comp_of[edges[eid].target] == comp_of[v])
                     for v, out in enumerate(self._out))

    @cached_property
    def max_displacement_norm(self) -> int:
        """Largest infinity norm of any edge displacement (0 for an edgeless graph)."""
        return max((inf_norm(e.displacement) for e in self.edges), default=0)


def _graph(dim: int, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> DisplacementGraph:
    """A graph from a builder that holds every invariant ``__post_init__`` checks, unchecked."""
    g = object.__new__(DisplacementGraph)
    g.__dict__.update(dim=dim, vertices=vertices, edges=edges)
    return g


class _GcPaused:
    """Pause cyclic GC while a builder allocates; restore the caller's state, also on a raise."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self.enabled:
            gc.enable()


def parse_dgf(text: str | bytes) -> DisplacementGraph:
    """Parse the line-oriented DGF format.

    Grammar, one declaration per line, ``#`` starts a comment::

        dim D
        vertex NAME
        edge SRC DST x1 ... xD

    The ``dim`` line must come first; vertices must be declared before use.
    Blank, whitespace-only and comment-only lines are skipped; lines end where
    ``str.splitlines`` ends them: at LF, CRLF, CR, VT, FF, FS, GS, RS, NEL,
    LS and PS.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    dim: int | None = None
    index: dict[str, int] = {}  # in declaration order, so its keys are the names
    edges: list[Edge] = []
    parsed: dict[str, IntVec] = {}  # each displacement spelling, parsed once and shared
    with _GcPaused():
        for lineno, line in enumerate(lines, start=1):
            parts = line.split(None, 3)  # an edge's displacement text stays whole
            if not parts:
                continue
            keyword = parts[0]
            if keyword == "edge":  # the keywords exclude each other, so the most common goes first
                try:
                    edges.append(_edge((index[parts[1]], index[parts[2]], parsed[parts[3]])))
                    continue
                except LookupError:  # a new spelling or a bad line: check it in order
                    pass
                if dim is None:
                    raise DgfError("'edge' before 'dim'", lineno)
                entries = parts[3].split() if len(parts) == 4 else []
                if len(entries) != dim:
                    raise DgfError(
                        f"expected 'edge SRC DST' followed by {dim} displacement entries", lineno
                    )
                for endpoint in parts[1:3]:
                    if endpoint not in index:
                        raise DgfError(f"undeclared vertex {endpoint!r}", lineno)
                try:
                    parsed[parts[3]] = tuple(map(int, entries))
                except ValueError:
                    raise DgfError("displacement entries must be integers", lineno) from None
                edges.append(_edge((index[parts[1]], index[parts[2]], parsed[parts[3]])))
            elif keyword == "vertex":
                if dim is None:
                    raise DgfError("'vertex' before 'dim'", lineno)
                if len(parts) != 2:
                    raise DgfError("expected exactly one name after 'vertex'", lineno)
                name = parts[1]
                if not (name.isascii() and name.isidentifier()):
                    raise DgfError(f"invalid vertex name {name!r}", lineno)
                if name in index:
                    raise DgfError(f"duplicate vertex name {name!r}", lineno)
                index[name] = len(index)
            elif keyword == "dim":
                if dim is not None:
                    raise DgfError("duplicate dim declaration", lineno)
                if len(parts) != 2:
                    raise DgfError("expected exactly one value after 'dim'", lineno)
                try:
                    dim = int(parts[1])
                except ValueError:
                    raise DgfError(f"invalid dimension {parts[1]!r}", lineno) from None
                if dim < 1:
                    raise DgfError("dimension must be >= 1", lineno)
            else:
                raise DgfError(f"unknown directive {keyword!r}", lineno)
    if dim is None:
        raise DgfError("missing dim declaration")
    if not index:
        raise DgfError("graph declares no vertices")
    return _graph(dim, tuple(index), tuple(edges))


def serialize_dgf(g: DisplacementGraph) -> str:
    """Canonical DGF text: the dim line, vertices, then edges, in declaration order."""
    names = g.vertices
    coords = {d: " ".join(map(str, d)) for d in set(map(itemgetter(2), g.edges))}
    lines = [f"dim {g.dim}"]
    lines.extend([f"vertex {name}" for name in names])
    lines.extend([f"edge {names[s]} {names[t]} {coords[d]}" for s, t, d in g.edges])
    return "\n".join(lines) + "\n"


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan over the successor lists of the vertices 0..n-1;
    returns SCCs as lists of vertex ids (unspecified order)."""
    n = len(succ)
    index, low = [-1] * n, [0] * n  # a vertex whose component is done gets index n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])  # index n (done) lowers nothing
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n
                    comps.append(comp)
    return comps


def strongly_connected_components(g: DisplacementGraph) -> tuple[tuple[int, ...], ...]:
    """SCCs of the quotient graph as sorted vertex-index tuples, ordered by smallest member.

    Computed once per graph, on its chain-folded core, and kept on it, like
    its out-edge lists.
    """
    return g._sccs


class Contraction(NamedTuple):
    """A graph with its chains folded: vertex i of ``graph`` is original
    vertex ``kept[i]``, and edge j runs along the original edges ``chains[j]``."""

    graph: DisplacementGraph
    kept: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]


def contract_chains(g: DisplacementGraph) -> Contraction | None:
    """Fold every maximal path through chain vertices into one edge; None if there is none.

    A chain vertex has in-degree 1 and out-degree 1 and no self-loop.  The new
    edge carries the path's displacement sum and keeps its original edge ids,
    so simple cycles correspond one to one, with the same displacement and
    length.  A ring made only of chain vertices keeps its least vertex.
    """
    n, edges = len(g.vertices), g.edges
    indegree, outdegree, out_edge = [0] * n, [0] * n, [0] * n
    for eid, (source, target, _) in enumerate(edges):
        indegree[target] += 1
        outdegree[source] += 1
        out_edge[source] = eid  # the only one, for a chain vertex
    chain = [indegree[v] == 1 == outdegree[v] and edges[out_edge[v]].target != v
             for v in range(n)]
    if not any(chain):
        return None
    kept = [not c for c in chain]
    pending = chain[:]  # chain vertices on no folded path yet
    walked: list[tuple[int, ...]] = []

    def walk(eid: int) -> None:
        path = [eid]
        w = edges[eid].target
        while pending[w]:
            pending[w] = False
            path.append(out_edge[w])
            w = edges[path[-1]].target
        walked.append(tuple(path))

    for eid, e in enumerate(edges):
        if kept[e.source]:
            walk(eid)
    for v in range(n):  # in order, so each ring left over is entered at its least vertex
        if pending[v]:
            pending[v], kept[v] = False, True
            walk(out_edge[v])
    index = {v: i for i, v in enumerate(v for v in range(n) if kept[v])}
    disps = [e.displacement for e in edges]
    with _GcPaused():
        folded = tuple(
            Edge(index[edges[p[0]].source], index[edges[p[-1]].target],
                 tuple(map(sum, zip(*[disps[eid] for eid in p]))))
            for p in walked
        )
    graph = _graph(g.dim, tuple(g.vertices[v] for v in index), folded)
    graph.__dict__["_contraction"] = None  # the core has no chain vertex left to fold
    return Contraction(graph, tuple(index), tuple(walked))


def gauge_transform(
    g: DisplacementGraph,
    gauge: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
) -> DisplacementGraph:
    """Rewrite every displacement as d(e) + gauge(source) - gauge(target).

    The gauge must assign an integer vector of length ``g.dim`` to every
    vertex index; closed-walk displacements are unchanged by construction.
    """
    vecs: list[IntVec] = []
    for v in range(len(g.vertices)):
        try:
            vec = gauge[v]
        except (KeyError, IndexError):
            raise ValueError(f"gauge is missing vertex {g.vertices[v]!r}") from None
        vec = tuple(int(c) for c in vec)
        if len(vec) != g.dim:
            raise ValueError(f"gauge vector for {g.vertices[v]!r} has wrong dimension")
        vecs.append(vec)
    new_edges = tuple(
        Edge(
            e.source,
            e.target,
            tuple(d + gs - gt for d, gs, gt in zip(e.displacement, vecs[e.source], vecs[e.target])),
        )
        for e in g.edges
    )
    return DisplacementGraph(g.dim, g.vertices, new_edges)


def _window(nv: int, width: int, pads: Sequence[int]) -> tuple[bytearray, list[int]]:
    """``bfs_distance``'s unseen window and each axis's id stride: each axis repeats the
    block so far width times between two runs of padding, in one join, so one window."""
    seen, strides = bytearray(nv), []
    for pad in pads:
        strides.append(len(seen))
        side = b"\x03" * (len(seen) * pad)
        seen = bytearray().join([side, *[seen] * width, side])
    return seen, strides


def _one_sided(
    seen: bytearray, moves: list[set[int]], src: int, delta: int, levels: int
) -> int | None:
    """``bfs_distance``'s mirrored search from ``src`` to ``src + delta``; -1 when
    ``levels`` levels do not decide it.  Level k marks its nodes 2 - k % 2."""
    frontier: list[list[int]] = [[] for _ in moves]
    frontier[src % len(moves)].append(src)
    seen[src] = 2
    for k in range(1, levels + 1):
        mark, last, even = 2 - k % 2, 1 + k % 2, False
        nxt: list[list[int]] = [[] for _ in moves]
        for v, ids in enumerate(frontier):
            for off in moves[v]:
                out = nxt[(v + off) % len(moves)]
                for nid in ids:
                    t = nid + off
                    if not seen[t]:
                        seen[t] = mark
                        out.append(t)
                        # partners are never padding: p is mark, last or both
                        if p := seen[t - delta] | seen[t + delta]:
                            if p & last:
                                return 2 * k - 1
                            even = True
        if even:
            return 2 * k
        if not any(nxt):
            return None
        frontier = nxt
    return -1


def bfs_distance(
    g: DisplacementGraph,
    radius: int,
    source: tuple[int, Sequence[int]],
    target: tuple[int, Sequence[int]],
    *,
    budget: int = DEFAULT_PATCH_BUDGET,
) -> int | None:
    """Directed shortest-path edge count inside the window; None when unreachable.

    The window is the finite part of the periodic graph that holds every
    node (v, x) with max-norm of x at most ``radius``; an edge whose
    translated target falls outside it is omitted.  Its node count
    ``len(g.vertices) * (2 * radius + 1) ** g.dim`` must not exceed
    ``budget``.  Unreachable within the window is an upper-bound artifact:
    the full periodic graph may still connect the two nodes outside it.

    The search runs from both ends (Pohl 1971), one whole level of the smaller
    frontier at a time, over one byte of seen flags per node in its own
    layout: vertex index fastest, then the coordinates, each axis padded on
    both sides by the largest |displacement| on that axis, and built axis by
    axis, already in its final state.  Bit 1 marks nodes reached from the
    source, bit 2 nodes reached backwards from the target, and the padding
    starts out as 3, so a step either way that leaves the window lands on a
    seen byte and every edge is a fixed id offset with no bounds test.  An
    edge with some |displacement| > 2 * radius can never stay inside the
    window and is dropped, which keeps the padding at most 2 * radius per side.

    The first node one side reaches that the other has seen gives the
    distance, the sum of both depths: before that level no node within
    forward depth k and backward depth b was seen by both, so the distance
    exceeds k + b.  An empty frontier on either side means no path.

    Only the source's side runs when (a) both endpoints sit on one vertex
    and (b) each vertex's forward moves are its backward ones: then
    d(a, b) = d(b, a), and by translation the target's backward ball is the
    source's ball shifted by delta = t - s.  While (c)
    k * pad_j + max(|s_j|, |t_j|, |2 s_j - t_j|) <= radius on every axis j
    at the level k expanded, no ball it reads (of s, t or s - delta) is
    clipped.  A new node whose partner at -delta or +delta bears the last
    level's parity mark gives 2k - 1, and this level's 2k once the level is
    done; a partner from an older level would be a walk shorter than a level
    already ruled out.  If (c) fails first, the window is dropped and both
    sides run on a new one.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    r, width, nv = radius, 2 * radius + 1, len(g.vertices)
    if (size := nv * width ** g.dim) > budget:
        raise BudgetError(f"patch would contain {size} nodes, exceeding the budget of {budget}")
    for endpoint in (source, target):
        v, coords = endpoint
        if not (0 <= v < nv and len(coords) == g.dim and all(-r <= c <= r for c in coords)):
            raise ValueError(f"endpoint {endpoint!r} is outside the patch")
    edges = [e for e in g.edges if inf_norm(e.displacement) <= 2 * r]
    pads = [max((abs(e.displacement[j]) for e in edges), default=0) for j in range(g.dim)]
    seen, strides = _window(nv, width, pads)

    def node(v: int, coords: Sequence[int]) -> int:
        return v + sum(s * (c + r + p) for s, c, p in zip(strides, coords, pads))

    src, dst = node(*source), node(*target)
    if src == dst:
        return 0
    # side 0 searches from the source and marks 1, side 1 from the target and marks 2;
    # the id offsets of the distinct moves out of (side 0) and into (side 1) each vertex
    moves: list[list[set[int]]] = [[set() for _ in range(nv)] for _ in range(2)]
    for e in edges:
        off = e.target - e.source + sum(map(mul, strides, e.displacement))
        moves[0][e.source].add(off)
        moves[1][e.target].add(-off)
    if source[0] == target[0] and moves[0] == moves[1]:
        slack = [r - max(abs(a), abs(b), abs(2 * a - b)) for a, b in zip(source[1], target[1])]
        levels = min((s // p for s, p in zip(slack, pads) if p), default=size)
        if min(slack) < 0:  # on an axis no edge moves along
            levels = 0
        if (dist := _one_sided(seen, moves[0], src, dst - src, levels)) != -1:
            return dist
        del seen  # hold one window at a time
        seen = _window(nv, width, pads)[0]
    seen[src], seen[dst] = 1, 2
    # one frontier list per quotient vertex, so each move runs over a whole list
    frontiers: list[list[list[int]]] = [[[] for _ in range(nv)] for _ in range(2)]
    frontiers[0][source[0]].append(src)
    frontiers[1][target[0]].append(dst)
    sizes = [1, 1]
    depth = 0  # forward depth + backward depth
    while True:
        side = sizes[1] < sizes[0]
        mark, other = 1 + side, 2 - side
        depth += 1
        nxt: list[list[int]] = [[] for _ in range(nv)]
        for v, ids in enumerate(frontiers[side]):
            for off in moves[side][v]:
                out = nxt[(v + off) % nv]
                for nid in ids:
                    t = nid + off
                    s = seen[t]
                    if not s:
                        seen[t] = mark
                        out.append(t)
                    elif s == other:
                        return depth
        sizes[side] = sum(map(len, nxt))
        if not sizes[side]:
            return None
        frontiers[side] = nxt


def gamma_norm_oracle(
    g: DisplacementGraph,
    x: Sequence[int],
    n: int,
    *,
    patch_budget: int = DEFAULT_PATCH_BUDGET,
) -> Fraction:
    """Finite-n growth-norm sample d(v, v + n*x)/n measured by BFS on a window.

    The base is vertex 0 at the origin.  The window's radius is fixed, not a
    parameter: n*(|x| + C + 1), with C the largest edge-displacement norm,
    always holds the goal n*x and is generous, so that some shortest path
    stays inside on well-connected graphs.  As n grows this quotient
    converges to the graph's growth norm of x; finite-n values depend on the
    base vertex, so callers should only rely on limits/bounds.
    """
    x = tuple(int(c) for c in x)
    if len(x) != g.dim:
        raise ValueError(f"direction has {len(x)} entries, expected {g.dim}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(strongly_connected_components(g)) != 1:
        raise NotStronglyConnectedError("growth-norm oracle requires a strongly connected quotient")
    radius = n * (inf_norm(x) + g.max_displacement_norm + 1)
    origin = (0, (0,) * g.dim)
    goal = (0, tuple(n * c for c in x))
    dist = bfs_distance(g, radius, origin, goal, budget=patch_budget)
    if dist is None:
        raise UnreachableError(
            "target unreachable within the window: the radius is too small "
            "or the periodic graph is disconnected"
        )
    return Fraction(dist, n)
