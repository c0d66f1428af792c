"""Shared fixtures text and seeded random generators for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction

from velo import DisplacementGraph, Edge

HONEYCOMB_DGF = """\
dim 2
vertex A
vertex B
edge A B 0 0
edge A B 0 1
edge A B -1 0
edge B A 0 0
edge B A 0 -1
edge B A 1 0
"""

SQUARE_DGF = """\
dim 2
vertex O
edge O O 1 0
edge O O -1 0
edge O O 0 1
edge O O 0 -1
"""

CUBIC_DGF = """\
dim 3
vertex O
edge O O 1 0 0
edge O O -1 0 0
edge O O 0 1 0
edge O O 0 -1 0
edge O O 0 0 1
edge O O 0 0 -1
"""

DIAMOND_DGF = """\
dim 3
vertex A
vertex B
edge A B 0 0 0
edge A B 1 0 0
edge A B 0 1 0
edge A B 0 0 1
edge B A 0 0 0
edge B A -1 0 0
edge B A 0 -1 0
edge B A 0 0 -1
"""

PM2_DGF = """\
dim 1
vertex O
edge O O 2
edge O O -2
"""

F = Fraction

HEX_VERTICES = (
    (F(-1, 2), F(-1, 2)),
    (F(-1, 2), F(0)),
    (F(0), F(-1, 2)),
    (F(0), F(1, 2)),
    (F(1, 2), F(0)),
    (F(1, 2), F(1, 2)),
)

HEX_VELOCITIES = (
    (F(-1, 2), F(-1, 2)),
    (F(-1, 2), F(0)),
    (F(0), F(-1, 2)),
    (F(0), F(0)),
    (F(0), F(1, 2)),
    (F(1, 2), F(0)),
    (F(1, 2), F(1, 2)),
)

CROSS_VERTICES = ((F(-1), F(0)), (F(0), F(-1)), (F(0), F(1)), (F(1), F(0)))


def random_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_edges: int = 8,
    max_dim: int = 3,
    max_disp: int = 2,
) -> DisplacementGraph:
    dim = rng.randint(1, max_dim)
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(1, max_edges)
    edges = tuple(
        Edge(
            rng.randrange(nv),
            rng.randrange(nv),
            tuple(rng.randint(-max_disp, max_disp) for _ in range(dim)),
        )
        for _ in range(ne)
    )
    return DisplacementGraph(dim, tuple(f"v{i}" for i in range(nv)), edges)


def random_strongly_connected_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_extra_edges: int = 4,
    max_dim: int = 3,
    max_disp: int = 2,
) -> DisplacementGraph:
    """Random graph with a Hamiltonian ring, so the quotient is strongly connected.

    At least one displacement is forced nonzero so that the displacement bound
    C is at least 1.
    """
    dim = rng.randint(1, max_dim)
    nv = rng.randint(1, max_vertices)
    edges = [
        Edge(i, (i + 1) % nv, tuple(rng.randint(-max_disp, max_disp) for _ in range(dim)))
        for i in range(nv)
    ]
    for _ in range(rng.randint(0, max_extra_edges)):
        edges.append(
            Edge(
                rng.randrange(nv),
                rng.randrange(nv),
                tuple(rng.randint(-max_disp, max_disp) for _ in range(dim)),
            )
        )
    if all(all(c == 0 for c in e.displacement) for e in edges):
        first = edges[0]
        edges[0] = Edge(first.source, first.target, (1,) + first.displacement[1:])
    return DisplacementGraph(dim, tuple(f"v{i}" for i in range(nv)), tuple(edges))


def random_walk(g: DisplacementGraph, rng: random.Random, length: int, start: int = 0) -> tuple[int, ...]:
    """Uniform outgoing-edge walk; requires positive out-degree along the way."""
    walk = []
    v = start
    for _ in range(length):
        options = g.out_edges(v)
        eid = options[rng.randrange(len(options))]
        walk.append(eid)
        v = g.edges[eid].target
    return tuple(walk)


def random_gauge(g: DisplacementGraph, rng: random.Random, bound: int = 3) -> list[tuple[int, ...]]:
    return [tuple(rng.randint(-bound, bound) for _ in range(g.dim)) for _ in g.vertices]


def random_rational_points(
    rng: random.Random, dim: int, count: int, max_num: int = 24, max_den: int = 12
) -> list[tuple[Fraction, ...]]:
    return [
        tuple(F(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(dim))
        for _ in range(count)
    ]


def subdivide(g: DisplacementGraph, cuts: dict[int, int]) -> DisplacementGraph:
    """Replace edge eid by a path through ``cuts[eid]`` new vertices; its
    displacement stays on the path's first edge."""
    names = list(g.vertices)
    edges = []
    for eid, e in enumerate(g.edges):
        source = e.source
        for _ in range(cuts.get(eid, 0)):
            names.append(f"c{len(names)}")
            edges.append(Edge(source, len(names) - 1, e.displacement))
            source, e = len(names) - 1, e._replace(displacement=(0,) * g.dim)
        edges.append(Edge(source, e.target, e.displacement))
    return DisplacementGraph(g.dim, tuple(names), tuple(edges))
