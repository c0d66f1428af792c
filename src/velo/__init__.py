"""Exact velocity polytopes, growth norms, and realizations of periodic graphs.

The input model is a displacement graph: a finite directed multigraph whose
edges carry integer displacement vectors.  Unrolling it over the integer
lattice gives a periodic graph; this package computes the polytope of
achievable long-run velocities of walks on that graph, the growth norm whose
unit ball it is, and a realizing graph for any rational polytope - all in
exact rational arithmetic, cross-checked against brute-force oracles.
"""
from .cycles import (
    CycleDecomposition,
    basic_velocities,
    canonical_rotation,
    decompose_path,
    enumerate_cycles,
    is_cycle,
    path_displacement,
)
from .dynamics import (
    TrajectoryPlan,
    build_plan,
    convergence_check,
    empirical_velocity,
    schedule,
    schedule_totals,
)
from .errors import (
    BudgetError,
    DgfError,
    NotStronglyConnectedError,
    UnreachableError,
    VeloError,
)
from .geometry import (
    Anisotropy,
    Facet,
    Polytope,
    affine_dimension,
    anisotropy,
    contains_polytope,
    convex_hull,
    dimensionality,
    gauge_norm,
    hull_ring_2d,
    origin_in_hull_interior,
    polytope_distance_inf,
    polytope_from_json,
    polytope_to_dict,
)
from .graph import (
    DisplacementGraph,
    Edge,
    bfs_distance,
    gamma_norm_oracle,
    gauge_transform,
    parse_dgf,
    serialize_dgf,
    strongly_connected_components,
)
from .intlattice import hermite_normal_form, lattice_rank_and_index
# No library module solves LPs any more; the benchmark's per-layer metrics still name its functions.
from . import linprog  # noqa: F401
from .invariants import (
    VERDICT_DISCONNECTED,
    VERDICT_QUOTIENT,
    VERDICT_STRONG,
    ConnectivityReport,
    GraphAnalysis,
    connectivity_report,
    velocity_polytope,
    velocity_set,
)
from .realize import realize
from .svg import polytope_svg

__version__ = "0.1.0"

__all__ = [
    "Anisotropy",
    "BudgetError",
    "ConnectivityReport",
    "CycleDecomposition",
    "DgfError",
    "DisplacementGraph",
    "Edge",
    "Facet",
    "GraphAnalysis",
    "NotStronglyConnectedError",
    "Polytope",
    "TrajectoryPlan",
    "UnreachableError",
    "VeloError",
    "VERDICT_DISCONNECTED",
    "VERDICT_QUOTIENT",
    "VERDICT_STRONG",
    "affine_dimension",
    "anisotropy",
    "basic_velocities",
    "bfs_distance",
    "build_plan",
    "canonical_rotation",
    "connectivity_report",
    "contains_polytope",
    "convergence_check",
    "convex_hull",
    "decompose_path",
    "dimensionality",
    "empirical_velocity",
    "enumerate_cycles",
    "gamma_norm_oracle",
    "gauge_norm",
    "gauge_transform",
    "hermite_normal_form",
    "hull_ring_2d",
    "is_cycle",
    "lattice_rank_and_index",
    "origin_in_hull_interior",
    "parse_dgf",
    "path_displacement",
    "polytope_distance_inf",
    "polytope_from_json",
    "polytope_svg",
    "polytope_to_dict",
    "realize",
    "schedule",
    "schedule_totals",
    "serialize_dgf",
    "strongly_connected_components",
    "velocity_polytope",
    "velocity_set",
]
