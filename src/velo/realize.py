"""Build a displacement graph whose velocity polytope is any given rational polytope.

The construction rescales vertex coordinates by the least common multiple of
their denominators to obtain integer displacements: a directed ring of that
many vertices carries zero displacements, and one closing edge per polytope
vertex carries the rescaled coordinate vector.  Every simple cycle then runs
the whole ring through exactly one closing edge, so the basic velocities are
exactly the polytope's vertices.  The ring's length is bounded by a vertex
budget, checked before any vertex is built.
"""
from __future__ import annotations

from itertools import chain, repeat

from .errors import BudgetError
from .geometry import Polytope, _integer_rows
from .graph import DisplacementGraph, _GcPaused, _edge, _graph

DEFAULT_REALIZE_BUDGET = 5_000_000


def realize(p: Polytope, *, budget: int = DEFAULT_REALIZE_BUDGET) -> DisplacementGraph:
    """Displacement graph whose velocity polytope is conv(``p.vertices``).

    The vertices are read as given, not hulled again: ``convex_hull`` and the
    JSON loader already leave only extreme points.  A hand-built ``Polytope``
    with a repeated or non-extreme vertex still gets a correct graph, with one
    more closing edge whose velocity lies inside the hull.  The ring's length
    and the closing vectors come from ``_integer_rows`` of the vertices.
    Raises BudgetError when the ring would need more than ``budget`` vertices.
    """
    if p.is_empty:
        raise ValueError("cannot realize the empty polytope")
    rows, scale = _integer_rows(p.vertices)  # scale * v for each vertex v, and the lcm
    if scale > budget:
        raise BudgetError(
            f"realize vertex budget of {budget} exceeded: the ring needs lcm {scale} vertices"
        )
    vertices = tuple(map("u{}".format, range(1, scale + 1)))
    ring = zip(range(scale - 1), range(1, scale), repeat((0,) * p.dim))  # one shared zero
    closing = ((scale - 1, 0, tuple(row)) for row in rows)
    with _GcPaused():
        return _graph(p.dim, vertices, tuple(map(_edge, chain(ring, closing))))
