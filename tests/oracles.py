"""Independent brute-force oracles used to validate the production algorithms.

Nothing here shares code paths with the library: cycles come from plain DFS,
strongly connected components from mutual reachability, path decompositions
from rescanning the walk after every cut, shortest quotient paths from a BFS
over the edge list, DGF text from a token-by-token reading of the grammar,
window distances from a BFS over (vertex, coordinates) tuples, the mirrored
one-sided search from a seen byte per node of its own window, scheduled walk
totals from one stage at a time with ``math.floor``, lattice ranks
and indices from minors, and membership, gauge values, max-norm distances,
facets and radii come from enumerating small point subsets and solving exact
linear systems, never from the simplex solver or the hull.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from velo import DisplacementGraph


def brute_cycles(g: DisplacementGraph) -> list[tuple[int, ...]]:
    """Every simple cycle by exhaustive DFS, as its lexicographically least rotation;
    for tiny graphs only."""
    out: list[list[int]] = [[] for _ in g.vertices]
    for eid, e in enumerate(g.edges):
        out[e.source].append(eid)
    found: set[tuple[int, ...]] = set()

    def extend(path: list[int], visited: frozenset[int]) -> None:
        last = g.edges[path[-1]]
        start = g.edges[path[0]].source
        if last.target == start:
            found.add(min(tuple(path[i:] + path[:i]) for i in range(len(path))))
            return
        if last.target in visited or len(path) >= len(g.vertices):
            return
        for eid in out[last.target]:
            extend(path + [eid], visited | {last.target})

    for eid in range(len(g.edges)):
        extend([eid], frozenset({g.edges[eid].source}))
    return sorted(found)


def decompose_restart_scan(g: DisplacementGraph, path: Sequence[int]):
    """(cycles, remainder) of a composing walk: while at least |V| edges are left,
    rescan them from the start for the first edge whose target is an earlier
    source, and cut out the cycle between the two, as its least rotation."""
    remaining, cycles = list(path), []
    while len(remaining) >= len(g.vertices):
        first_source: dict[int, int] = {}
        for i, eid in enumerate(remaining):
            first_source.setdefault(g.edges[eid].source, i)
            k = first_source.get(g.edges[eid].target)
            if k is not None:
                break
        piece = remaining[k:i + 1]
        cycles.append(min(tuple(piece[j:] + piece[:j]) for j in range(len(piece))))
        del remaining[k:i + 1]
    return cycles, tuple(remaining)


def bfs_path(g: DisplacementGraph, start: int, goal: int) -> tuple[int, ...]:
    """A shortest walk from start to goal as edge ids: a BFS that scans the whole
    edge list in ascending id order at each vertex and gives each vertex the first
    edge found into it as its parent, then walks the goal's parents back."""
    parent = {start: -1}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for eid, e in enumerate(g.edges):
            if e.source == v and e.target not in parent:
                parent[e.target] = eid
                queue.append(e.target)
    path = []
    while goal != start:
        path.append(parent[goal])
        goal = g.edges[path[-1]].source
    return tuple(reversed(path))


def brute_sccs(g: DisplacementGraph) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components as the classes of mutual reachability,
    each sorted, ordered by smallest member."""
    reach = []
    for v in range(len(g.vertices)):
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for e in g.edges:
                if e.source == u and e.target not in seen:
                    seen.add(e.target)
                    todo.append(e.target)
        reach.append(seen)
    return tuple(sorted({tuple(w for w in sorted(reach[v]) if v in reach[w])
                         for v in range(len(g.vertices))}))


def reference_dgf(text: str | bytes):
    """The DGF grammar read line by line and token by token.

    Returns ``("graph", dim, names, edges)``, with names a tuple and edges a
    list of (source index, target index, displacement tuple), or ``("error",
    message, line)`` for the first error, where line is None for an error of
    the whole file.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    dim, names, edges = None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "dim":
            if dim is not None:
                return "error", "duplicate dim declaration", lineno
            if len(args) != 1:
                return "error", "expected exactly one value after 'dim'", lineno
            try:
                dim = int(args[0])
            except ValueError:
                return "error", f"invalid dimension {args[0]!r}", lineno
            if dim < 1:
                return "error", "dimension must be >= 1", lineno
        elif keyword == "vertex":
            if dim is None:
                return "error", "'vertex' before 'dim'", lineno
            if len(args) != 1:
                return "error", "expected exactly one name after 'vertex'", lineno
            name = args[0]
            if not (name.isascii() and name.isidentifier()):
                return "error", f"invalid vertex name {name!r}", lineno
            if name in names:
                return "error", f"duplicate vertex name {name!r}", lineno
            names.append(name)
        elif keyword == "edge":
            if dim is None:
                return "error", "'edge' before 'dim'", lineno
            if len(args) != 2 + dim:
                return ("error", f"expected 'edge SRC DST' followed by {dim} displacement entries",
                        lineno)
            for endpoint in args[:2]:
                if endpoint not in names:
                    return "error", f"undeclared vertex {endpoint!r}", lineno
            entries = []
            for token in args[2:]:
                try:
                    entries.append(int(token))
                except ValueError:
                    return "error", "displacement entries must be integers", lineno
            edges.append((names.index(args[0]), names.index(args[1]), tuple(entries)))
        else:
            return "error", f"unknown directive {keyword!r}", lineno
    if dim is None:
        return "error", "missing dim declaration", None
    if not names:
        return "error", "graph declares no vertices", None
    return "graph", dim, tuple(names), edges


def bfs_window(
    g: DisplacementGraph,
    radius: int,
    source: tuple[int, Sequence[int]],
    target: tuple[int, Sequence[int]],
) -> int | None:
    """Directed edge distance between two nodes (v, x) of the unrolled graph, using
    only nodes with every |x_i| <= radius; None when the window does not connect them."""
    start, goal = (source[0], tuple(source[1])), (target[0], tuple(target[1]))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            return dist[node]
        v, x = node
        for e in g.edges:
            y = tuple(a + b for a, b in zip(x, e.displacement))
            nxt = (e.target, y)
            if e.source == v and all(abs(c) <= radius for c in y) and nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return None


def one_sided_bytes(
    width: int, pads: Sequence[int], moves: Sequence[set[int]], src: int, delta: int, levels: int
) -> int | None:
    """The mirrored one-sided search over one seen byte per node, as ``bfs_distance``
    ran it before its ball became bitsets: the same arguments, the same answers.

    The window is ``bfs_distance``'s layout (vertex index fastest, each axis of
    ``width`` cells padded by ``pads`` on both sides, padding marked seen); each
    new node at level k is checked against both t - delta and t + delta, whose
    seen bytes mark levels by parity: the last level's mark gives 2k - 1 and this
    level's 2k; -1 when ``levels`` levels do not decide it.
    """
    seen = bytearray(len(moves))
    for pad in pads:
        side = bytearray(b"\x03") * (len(seen) * pad)
        seen = side + seen * width + side
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


def stage_totals(
    g: DisplacementGraph, plan, k_max: int, budget: int
) -> tuple[int, tuple[int, ...]] | int:
    """``schedule_totals`` one stage at a time, as ``velo.dynamics`` ran it before it
    summed its stages in blocks: the walk's length and displacement, or the first
    stage whose running length exceeds ``budget``.

    Stage k, run k times, holds every connector once and cycle i
    floor(k * weight_i / length_i) times, taken with ``math.floor`` on a Fraction;
    each path's displacement is summed from the edge list.
    """
    paths = [(p, None) for p in plan.connectors] + list(plan.cycles)
    moves = [[sum(g.edges[e].displacement[j] for e in p) for j in range(g.dim)] for p, _ in paths]
    total, moved = 0, [0] * g.dim
    for k in range(1, k_max + 1):
        for (path, weight), vec in zip(paths, moves):
            runs = k * (1 if weight is None else math.floor(k * weight / len(path)))
            total += runs * len(path)
            moved = [m + runs * c for m, c in zip(moved, vec)]
        if total > budget:
            return k
    return total, tuple(moved)


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None | str:
    """Gaussian elimination: solution list, None if inconsistent, "under" if not unique."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) < n:
        return "under"
    x = [Fraction(0)] * n
    for row_i, c in enumerate(pivots):
        x[c] = aug[row_i][n]
    return x


def member_caratheodory(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Membership in a convex hull by enumerating simplices of at most d+1 points."""
    d = len(point)
    pts = [tuple(Fraction(c) for c in p) for p in points]
    target = list(point) + [Fraction(1)]
    for size in range(1, d + 2):
        for subset in combinations(pts, size):
            rows = [[p[j] for p in subset] for j in range(d)]
            rows.append([Fraction(1)] * size)
            sol = solve_exact(rows, target)
            if isinstance(sol, list) and all(l >= 0 for l in sol):
                return True
    return False


def gauge_caratheodory(
    point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]
) -> Fraction | None:
    """Minkowski gauge by enumerating basic solutions over at most d vertices."""
    d = len(point)
    pts = [tuple(Fraction(c) for c in p) for p in vertices]
    target = [Fraction(c) for c in point]
    best: Fraction | None = Fraction(0) if all(c == 0 for c in target) else None
    for size in range(1, d + 1):
        for subset in combinations(pts, size):
            rows = [[p[j] for p in subset] for j in range(d)]
            sol = solve_exact(rows, target)
            if isinstance(sol, list) and all(l >= 0 for l in sol):
                value = sum(sol, Fraction(0))
                if best is None or value < best:
                    best = value
    return best


def distance_inf_brute(
    point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]
) -> Fraction:
    """Max-norm distance from the point to the hull of the vertices, by basic solutions.

    It is 0 for a member.  Otherwise it is min t over lam >= 0, sum(lam) = 1
    and |x - sum(lam_i v_i)|_inf <= t, where t > 0, so an optimal basic
    solution has k <= d vertices and k coordinates j with
    x_j - sum(lam_i v_ij) = sigma_j t, sigma_j = +-1: one square system per
    choice of vertices, coordinates and signs.
    """
    d = len(point)
    x = [Fraction(c) for c in point]
    pts = [tuple(Fraction(c) for c in p) for p in vertices]
    if member_caratheodory(x, pts):
        return Fraction(0)
    best: Fraction | None = None
    for k in range(1, d + 1):
        for subset in combinations(pts, k):
            for coords in combinations(range(d), k):
                for signs in product((1, -1), repeat=k):
                    rows = [[p[j] for p in subset] + [Fraction(s)] for j, s in zip(coords, signs)]
                    rows.append([Fraction(1)] * k + [Fraction(0)])
                    sol = solve_exact(rows, [x[j] for j in coords] + [Fraction(1)])
                    if not isinstance(sol, list) or any(lam < 0 for lam in sol[:k]):
                        continue
                    t = sol[k]
                    if best is not None and t >= best:
                        continue
                    near = [sum(lam * p[j] for lam, p in zip(sol, subset)) for j in range(d)]
                    if all(abs(a - b) <= t for a, b in zip(x, near)):
                        best = t
    assert best is not None, "a point outside the hull has a nearest point"
    return best


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def lattice_rank_and_index_brute(
    rows: Sequence[Sequence[int]], dim: int
) -> tuple[int, int | None]:
    """The rank of the integer rows, the order of their largest nonzero minor, and,
    when that is ``dim``, the index of their lattice in Z^dim: the gcd of every
    dim x dim minor."""
    mat = [list(r) for r in rows]

    def minors(k: int) -> list[int]:
        return [_det([[r[c] for c in cols] for r in sub])
                for sub in combinations(mat, k) for cols in combinations(range(dim), k)]

    rank = max((k for k in range(1, min(len(mat), dim) + 1) if any(minors(k))), default=0)
    return rank, (math.gcd(*minors(dim)) if rank == dim else None)


def _coprime(normal: Sequence[Fraction], offset: Fraction) -> tuple[tuple[int, ...], int]:
    scale = 1
    for v in list(normal) + [offset]:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    ints = [int(v * scale) for v in list(normal) + [offset]]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def facets_brute(
    points: Sequence[Sequence[Fraction]],
) -> list[tuple[tuple[int, ...], int]] | None:
    """Facets a.x <= b of the hull as coprime integers, sorted; None unless full-dimensional.

    Every d-subset of the points that spans a hyperplane is a candidate, its
    normal solved with one coordinate fixed to 1; it is a facet when all the
    points lie on one side.  A hyperplane holding every point, or no spanned
    hyperplane at all, means the points are not full-dimensional.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    d = len(pts[0])
    found: set[tuple[tuple[int, ...], int]] = set()
    for subset in combinations(pts, d):
        base = subset[0]
        rows = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
        rhs = [Fraction(0)] * (d - 1) + [Fraction(1)]
        normal = None
        for j in range(d):
            unit = [Fraction(int(i == j)) for i in range(d)]
            sol = solve_exact(rows + [unit], rhs)
            if isinstance(sol, list):
                normal = sol
                break
        if normal is None:
            continue
        offset = sum((a * c for a, c in zip(normal, base)), Fraction(0))
        values = [sum((a * c for a, c in zip(normal, p)), Fraction(0)) for p in pts]
        if all(v == offset for v in values):
            return None
        if all(v <= offset for v in values):
            found.add(_coprime(normal, offset))
        elif all(v >= offset for v in values):
            found.add(_coprime([-a for a in normal], -offset))
    return sorted(found) or None


def anisotropy_brute(
    points: Sequence[Sequence[Fraction]], metric: Sequence[Sequence[Fraction]]
) -> tuple[Fraction, Fraction]:
    """(inradius^2, circumradius^2) in the metric M of the hull of the points, which
    must hold the origin inside: the largest v'Mv over the points, and the
    least b^2 / (a'M^-1 a) over the facets a.x <= b of ``facets_brute``, with
    M^-1 a solved exactly."""
    m = [[Fraction(c) for c in row] for row in metric]
    d = len(m)
    circum = max(sum(v[i] * m[i][j] * v[j] for i in range(d) for j in range(d)) for v in points)
    inrad = None
    for a, b in facets_brute(points):
        z = solve_exact(m, [Fraction(c) for c in a])
        value = Fraction(b * b) / sum((c * w for c, w in zip(a, z)), Fraction(0))
        inrad = value if inrad is None else min(inrad, value)
    return inrad, circum
