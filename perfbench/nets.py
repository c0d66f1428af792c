"""Crystal nets, their supercells and their exact velocity geometry.

Nothing here calls velo: expected polytopes, gauge values, facets and cycle
counts come from closed forms or brute force, so they can check velo's output.

A base net is either a single vertex with unit loops (square, cubic), whose
velocity polytope is the cross-polytope, or a bipartite pair A, B whose A->B
displacements are 0 plus a lattice basis s_1..s_d and whose B->A
displacements are their negatives (honeycomb, diamond).  The simple cycles of
the pair are A->B->A, so the velocities are (s_i - s_j)/2.  The k_1 x .. x k_d
supercell of a net has velocity polytope diag(1/k) * P_base.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

F = Fraction


class Net(NamedTuple):
    name: str
    dim: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]


def _unit(dim: int, i: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if j == i else 0 for j in range(dim))


def _loops_net(name: str, dim: int) -> Net:
    loops = [_unit(dim, i, s) for i in range(dim) for s in (1, -1)]
    return Net(name, dim, ("O",), tuple((0, 0, d) for d in loops))


def _pair_net(name: str, basis: Sequence[tuple[int, ...]]) -> Net:
    dim = len(basis)
    ab = [(0,) * dim] + list(basis)
    edges = [(0, 1, d) for d in ab] + [(1, 0, tuple(-c for c in d)) for d in ab]
    return Net(name, dim, ("A", "B"), tuple(edges))


BASE = {
    "sq": _loops_net("sq", 2),
    "hc": _pair_net("hc", [(0, 1), (-1, 0)]),
    "cub": _loops_net("cub", 3),
    "dia": _pair_net("dia", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
}

# Simple-cycle counts of supercells, from an exhaustive DFS (smoke.py re-derives
# the small ones); sq_k for k = 1..4 is 4 / 48 / 642 / 29,440.
CYCLE_COUNTS = {
    ("sq", (1, 1)): 4,
    ("sq", (2, 2)): 48,
    ("sq", (3, 3)): 642,
    ("sq", (4, 4)): 29440,
}


def supercell(base: Net, cells: Sequence[int]) -> Net:
    """The net re-read with a k_1 x .. x k_d block of unit cells as its cell."""
    cells = tuple(cells)
    coords = list(itertools.product(*(range(k) for k in cells)))
    names = []
    index = {}
    for v, vname in enumerate(base.vertices):
        for c in coords:
            index[v, c] = len(names)
            names.append(vname + "".join(f"_{x}" for x in c))
    edges = []
    for v in range(len(base.vertices)):
        for c in coords:
            for src, tgt, disp in base.edges:
                if src != v:
                    continue
                moved = [x + d for x, d in zip(c, disp)]
                wrapped = tuple(m % k for m, k in zip(moved, cells))
                jump = tuple(m // k for m, k in zip(moved, cells))
                edges.append((index[v, c], index[tgt, wrapped], jump))
    label = base.name + "_" + "x".join(str(k) for k in cells)
    return Net(label, base.dim, tuple(names), tuple(edges))


def gauge_moved(net: Net, potential: Sequence[Sequence[int]]) -> Net:
    """Same net with d(e) + p(target) - p(source): every cycle keeps its displacement."""
    edges = tuple(
        (s, t, tuple(d + pt - ps for d, pt, ps in zip(disp, potential[t], potential[s])))
        for s, t, disp in net.edges
    )
    return Net(net.name, net.dim, net.vertices, edges)


def disjoint_union(parts: Sequence[Net]) -> Net:
    """The nets side by side, vertex names prefixed p0_, p1_, ..., one component each."""
    names: list[str] = []
    edges = []
    for i, net in enumerate(parts):
        edges += [(s + len(names), t + len(names), d) for s, t, d in net.edges]
        names += [f"p{i}_{v}" for v in net.vertices]
    return Net("+".join(p.name for p in parts), parts[0].dim, tuple(names), tuple(edges))


def dgf_text(net: Net) -> str:
    lines = [f"dim {net.dim}"]
    lines += [f"vertex {v}" for v in net.vertices]
    for s, t, disp in net.edges:
        lines.append(f"edge {net.vertices[s]} {net.vertices[t]} " + " ".join(map(str, disp)))
    return "\n".join(lines) + "\n"


def base_vertices(base: Net) -> list[tuple[Fraction, ...]]:
    if len(base.vertices) == 1:
        return [tuple(F(c) for c in d) for _, _, d in base.edges]
    ab = [d for s, _, d in base.edges if s == 0]
    return [
        tuple(F(a - b, 2) for a, b in zip(si, sj))
        for si, sj in itertools.permutations(ab, 2)
    ]


def polytope_vertices(base: Net, cells: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """Vertices of diag(1/k) * P_base, sorted."""
    return sorted(tuple(c / k for c, k in zip(v, cells)) for v in base_vertices(base))


def gauge(base: Net, cells: Sequence[int], x: Sequence[int]) -> Fraction:
    """Growth norm of x on the supercell: the base gauge of k * x.

    On a loops net the gauge is the l1 norm.  On a pair net, write
    y = sum c_i s_i and c_0 = -sum c_i; the gauge is sum |c_i| over i = 0..d.
    """
    y = [F(c * k) for c, k in zip(x, cells)]
    if len(base.vertices) == 1:
        return sum((abs(c) for c in y), F(0))
    basis = [d for s, _, d in base.edges if s == 0][1:]
    coeffs = unique_solution([[b[i] for b in basis] for i in range(base.dim)], y)
    return abs(sum(coeffs)) + sum(abs(c) for c in coeffs)


def unique_solution(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """The solution of an exact m x n system with m >= n by Gauss-Jordan
    elimination, or None if it has none or more than one."""
    m, n = len(rows), len(rows[0])
    aug = [[F(v) for v in r] + [F(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((i for i in range(c, m) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for i in range(m):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    if any(aug[i][n] != 0 for i in range(n, m)):
        return None
    return [aug[i][n] for i in range(n)]


def affine_weights(p: Sequence[Fraction], points: Sequence[Sequence[Fraction]]):
    """The unique weights summing to 1 that combine `points` into p, or None."""
    rows = [[q[j] for q in points] for j in range(len(p))] + [[F(1)] * len(points)]
    return unique_solution(rows, list(p) + [F(1)])


def in_hull(p: Sequence[Fraction], others: Sequence[Sequence[Fraction]]) -> bool:
    """p is a convex combination of an affinely independent subset (Caratheodory)."""
    for size in range(1, min(len(p) + 1, len(others)) + 1):
        for subset in itertools.combinations(others, size):
            lam = affine_weights(p, subset)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def _normal(points: Sequence[tuple[Fraction, ...]]) -> tuple[Fraction, ...] | None:
    """Normal of the hyperplane through d points in dimension d = 2 or 3; None if degenerate."""
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    if len(base) == 2:
        (u0, u1), = diffs
        n = (-u1, u0)
    else:
        (u0, u1, u2), (v0, v1, v2) = diffs
        n = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    return None if all(c == 0 for c in n) else n


def primitive(normal: Sequence[Fraction], offset: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale (a, b) to coprime integers, the form velo prints facets in."""
    lcm = 1
    for v in list(normal) + [offset]:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in list(normal) + [offset]]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def facets(vertices: Sequence[tuple[Fraction, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Facets a.x <= b of a full-dimensional 2-d or 3-d polytope, by brute force."""
    dim = len(vertices[0])
    found = set()
    for subset in itertools.combinations(vertices, dim):
        n = _normal(subset)
        if n is None:
            continue
        b = sum(a * c for a, c in zip(n, subset[0]))
        sides = {(h > b) - (h < b) for h in (sum(a * c for a, c in zip(n, v)) for v in vertices)}
        if sides <= {0, -1}:
            found.add(primitive(n, b))
        elif sides <= {0, 1}:
            found.add(primitive([-a for a in n], -b))
    return sorted(found)


def radii_sq(vertices, facet_list) -> tuple[Fraction, Fraction]:
    """Squared in- and circumradius about the origin (Euclidean metric)."""
    circum = max(sum(c * c for c in v) for v in vertices)
    inrad = min(F(b * b, sum(a * a for a in n)) for n, b in facet_list)
    return inrad, circum


def simple_cycles(net: Net) -> list[tuple[int, ...]]:
    """Canonical simple cycles by exhaustive DFS, sorted; for small nets only."""
    out = [[] for _ in net.vertices]
    for eid, (s, _, _) in enumerate(net.edges):
        out[s].append(eid)
    found = set()

    def extend(path: list[int], visited: set[int]) -> None:
        start = net.edges[path[0]][0]
        end = net.edges[path[-1]][1]
        if end == start:
            k = min(range(len(path)), key=lambda i: path[i:] + path[:i])
            found.add(tuple(path[k:] + path[:k]))
            return
        if end in visited:
            return
        visited.add(end)
        for eid in out[end]:
            extend(path + [eid], visited)
        visited.discard(end)

    for eid, (s, _, _) in enumerate(net.edges):
        extend([eid], {s})
    return sorted(found)
