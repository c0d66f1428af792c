"""Build a displacement graph whose velocity polytope is any given rational polytope.

The construction rescales vertex coordinates by the least common multiple of
their denominators to obtain integer displacements: a directed ring of that
many vertices carries zero displacements, and one closing edge per polytope
vertex carries the rescaled coordinate vector.  Every simple cycle then runs
the whole ring through exactly one closing edge, so the basic velocities are
exactly the polytope's vertices.
"""
from __future__ import annotations

import math

from .cycles import DEFAULT_MAX_CYCLES
from .geometry import Polytope, contains_polytope, convex_hull
from .graph import DisplacementGraph, Edge
from .invariants import velocity_polytope


def realize(p: Polytope) -> DisplacementGraph:
    """Displacement graph realizing the polytope as its velocity polytope."""
    if p.is_empty:
        raise ValueError("cannot realize the empty polytope")
    hull = convex_hull(p.vertices, dim=p.dim)
    scale = 1
    for v in hull.vertices:
        for c in v:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    vertices = tuple(f"u{i}" for i in range(1, scale + 1))
    edges = [Edge(j, j + 1, (0,) * p.dim) for j in range(scale - 1)]
    for w in hull.vertices:
        edges.append(Edge(scale - 1, 0, tuple(int(scale * c) for c in w)))
    return DisplacementGraph(p.dim, vertices, tuple(edges))


def roundtrip_check(p: Polytope, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> bool:
    """True iff the realized graph's velocity polytope equals the input as a set."""
    if p.is_empty:
        raise ValueError("cannot realize the empty polytope")
    hull = convex_hull(p.vertices, dim=p.dim)
    back = velocity_polytope(realize(p), max_cycles=max_cycles)
    return contains_polytope(back, hull) and contains_polytope(hull, back)
