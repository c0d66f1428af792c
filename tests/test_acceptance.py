"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria pin exact rational values and the tolerances stated up front; the
randomized ones use fixed seeds so every run checks the same instances.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from helpers import (
    CROSS_VERTICES,
    HEX_VELOCITIES,
    HEX_VERTICES,
    random_gauge,
    random_graph,
    random_rational_points,
    random_strongly_connected_graph,
    random_walk,
)
from velo import (
    VERDICT_QUOTIENT,
    anisotropy,
    basic_velocities,
    build_plan,
    connectivity_report,
    convergence_check,
    convex_hull,
    decompose_path,
    dimensionality,
    empirical_velocity,
    enumerate_cycles,
    gamma_norm_oracle,
    gauge_norm,
    gauge_transform,
    hermite_normal_form,
    path_displacement,
    realize,
    schedule,
    velocity_polytope,
)
from velo.cli import main
from velo.graph import inf_norm

F = Fraction

# polytopes produced while the suite runs; criterion 10 sweeps them all
_CORPUS: list = []


def _register(p) -> None:
    _CORPUS.append(p)


def _pass(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_criterion_01_honeycomb_end_to_end(honeycomb):
    start = time.monotonic()
    cycles = enumerate_cycles(honeycomb)
    assert len(cycles) == 9
    vels = basic_velocities(honeycomb)
    assert vels == HEX_VELOCITIES
    poly = velocity_polytope(honeycomb)
    assert poly.vertices == HEX_VERTICES
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _register(poly)
    _pass(1, "honeycomb end-to-end (9 cycles, 7 velocities, hexagon)")


def test_criterion_02_one_dimensional_counterexample(pm2):
    poly = velocity_polytope(pm2)
    assert poly.vertices == ((F(-2),), (F(2),))
    rep = connectivity_report(pm2)
    assert rep.verdict == VERDICT_QUOTIENT
    assert rep.cycle_lattice_rank == 1
    assert rep.lattice_index == 2
    assert hermite_normal_form([(2,), (-2,)]) == [[2]]
    _register(poly)
    _pass(2, "loops of +/-2 give [-2,2] but a split unrolling")


def test_criterion_03_unit_ball_correspondence(honeycomb, square):
    start = time.monotonic()
    directions = ((1, 0), (0, 1), (1, 1), (2, 1))
    for g in (honeycomb, square):
        poly = velocity_polytope(g)
        for x in directions:
            exact = gauge_norm(poly, [F(c) for c in x])
            assert exact is not None
            for n in (4, 8, 16):
                sampled = gamma_norm_oracle(g, x, n)
                assert abs(sampled - exact) <= F(4, n), (x, n, sampled, exact)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _pass(3, "BFS oracle matches the gauge within 4/n on both fixtures")


def test_criterion_04_square_lattice_diagonal(square):
    poly = velocity_polytope(square)
    assert gauge_norm(poly, (F(1), F(1))) == 2
    assert gamma_norm_oracle(square, (1, 1), 8) == 2
    _register(poly)
    _pass(4, "square-lattice diagonal costs exactly 2 by the gauge and BFS")


def test_criterion_05_gauge_invariance():
    rng = random.Random(501)
    for _ in range(100):
        g = random_graph(rng, max_vertices=4, max_edges=8, max_dim=3, max_disp=2)
        moved = gauge_transform(g, random_gauge(g, rng))
        assert basic_velocities(g) == basic_velocities(moved)
    _pass(5, "basic velocities unchanged under 100 random gauges")


def test_criterion_06_decomposition_bounds():
    rng = random.Random(601)
    for _ in range(100):
        g = random_strongly_connected_graph(rng)
        walk = random_walk(g, rng, 200)
        dec = decompose_path(g, walk)
        n_vertices = len(g.vertices)
        big_c = g.max_displacement_norm
        slack = len(walk) - dec.total_cycle_length
        assert 0 <= slack <= n_vertices
        cycle_sum = [0] * g.dim
        for c in dec.cycles:
            for i, v in enumerate(path_displacement(g, c.edges)):
                cycle_sum[i] += v
        gap = tuple(a - b for a, b in zip(path_displacement(g, walk), cycle_sum))
        assert inf_norm(gap) < big_c * n_vertices
    _pass(6, "cycle decomposition bounds hold on 100 random walks")


def test_criterion_07_prefix_distance_bound(honeycomb, square):
    rng = random.Random(701)
    graphs = [honeycomb, square] + [random_strongly_connected_graph(rng) for _ in range(4)]
    for g in graphs:
        poly = velocity_polytope(g)
        bound_scale = 2 * len(g.vertices) * g.max_displacement_norm
        for n in (10, 50, 100, 500):
            walk = random_walk(g, rng, n)
            dist = convergence_check(g, walk, poly)
            assert dist < F(bound_scale, n), (len(g.vertices), n, dist)
        if g.dim >= 2:
            _register(poly)
    _pass(7, "empirical velocities stay within 2|V|C/n of the polytope")


def test_criterion_08_scheduled_convergence(honeycomb):
    rng = random.Random(2024)
    cycles = enumerate_cycles(honeycomb)
    velocities = {
        c: tuple(F(x, c.length) for x in path_displacement(honeycomb, c.edges)) for c in cycles
    }
    for _ in range(20):
        count = rng.randint(2, 4)
        chosen = rng.sample(cycles, count)
        cuts = sorted(rng.sample(range(1, 12), count - 1))
        weights = [F(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
        target = tuple(
            sum((w * velocities[c][j] for c, w in zip(chosen, weights)), F(0)) for j in range(2)
        )
        plan = build_plan(honeycomb, list(zip(chosen, weights)))
        errors = {}
        for k_max in (16, 64):
            prefix = schedule(plan, k_max)
            vel = empirical_velocity(honeycomb, prefix)
            errors[k_max] = max(abs(a - b) for a, b in zip(vel, target))
        assert errors[64] <= F(1, 20), (weights, errors)
        assert 2 * errors[64] <= errors[16] or errors[16] == errors[64] == 0, (weights, errors)
    _pass(8, "scheduled mixtures converge and the error halves from k=16 to k=64")


def test_criterion_09_realization_roundtrip():
    rng = random.Random(901)
    start = time.monotonic()
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        points = random_rational_points(rng, dim, rng.randint(1, 6), max_num=24, max_den=12)
        poly = convex_hull(points)
        back = velocity_polytope(realize(poly))
        assert back.vertices == poly.vertices
        if dim >= 2:
            _register(poly)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    _pass(9, "200 random rational polytopes survive the realization round trip")


def test_criterion_10_no_isotropic_polytope():
    rng = random.Random(1001)
    corpus = list(_CORPUS)
    corpus.append(convex_hull(HEX_VELOCITIES))
    corpus.append(convex_hull(CROSS_VERTICES))
    for _ in range(60):
        g = random_strongly_connected_graph(rng, max_dim=3, max_disp=1)
        if g.dim < 2:
            continue
        corpus.append(velocity_polytope(g))
    checked = 0
    for poly in corpus:
        if poly.is_empty or poly.dim < 2 or poly.facets is None:
            continue
        if dimensionality(poly) != (poly.dim, True):
            continue
        result = anisotropy(poly)
        assert result.inradius_sq < result.circumradius_sq, poly
        assert not result.isotropic
        checked += 1
    assert checked >= 20, f"only {checked} full-dimensional polytopes collected"
    _pass(10, f"all {checked} full-dimensional velocity polytopes are anisotropic")


def test_criterion_11_morphism_obstruction(fixture_files, capsys):
    code = main(["check-morphism", fixture_files["square"], fixture_files["honeycomb"]])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "morphism impossible\n"
    _pass(11, "no morphism from the square lattice into the honeycomb graph")
