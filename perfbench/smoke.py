"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

It checks the closed forms in nets.py against brute force, runs each workload
at a tiny size with and without tracing, compares the metric names with
BENCHMARK.json, makes sure a deliberately wrong expected value is caught, and
makes sure the benchmark refuses to run without the velo sources.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import nets  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_UNITS = 6  # decks open with their cheapest classes


def check_closed_forms() -> None:
    """Polytopes, gauges and cycle counts of nets.py against exhaustive search."""
    for (name, cells), count in nets.CYCLE_COUNTS.items():
        if len(nets.supercell(nets.BASE[name], cells).vertices) <= 9:
            found = len(nets.simple_cycles(nets.supercell(nets.BASE[name], cells)))
            assert found == count, (name, cells, found, count)
    for name, cells in [("sq", (2, 1)), ("hc", (2, 1)), ("hc", (1, 2)), ("cub", (1, 1, 1)),
                        ("dia", (1, 1, 1)), ("dia", (1, 2, 1))]:
        base = nets.BASE[name]
        net = nets.supercell(base, cells)
        vels = {tuple(Fraction(sum(net.edges[e][2][j] for e in c), len(c)) for j in range(net.dim))
                for c in nets.simple_cycles(net)}
        extreme = sorted(v for v in vels if not nets.in_hull(v, sorted(vels - {v})))
        assert extreme == nets.polytope_vertices(base, cells), (name, cells)
        for x in itertools.product(range(-2, 3), repeat=net.dim):
            g = nets.gauge(base, cells, x)
            # x / g lies on the boundary: inside the polytope, and 1.01 * x / g outside it
            if g:
                point = tuple(c / g for c in x)
                assert nets.in_hull(point, extreme), (name, x)
                assert not nets.in_hull(tuple(c * Fraction(101, 100) for c in point), extreme)
    rng = random.Random(3)
    for dim, count, lcm in [(1, 1, 7), (1, 2, 132), (2, 2, 21), (3, 3, 264), (2, 5, 360),
                            (3, 6, 27720)]:
        points = workloads.random_polytope(rng, dim, count, lcm)
        assert all(not nets.in_hull(p, [q for q in points if q != p]) for p in points), points
        assert math.lcm(*(c.denominator for p in points for c in p)) == lcm, points


def tiny(workload: str, workdir: str):
    decks = workloads.WORKLOADS[workload](random.Random(7), workdir)
    return [deck[:TINY_UNITS] for deck in decks]


def check_metrics(spec: dict) -> None:
    """Tiny runs of every workload: outputs correct, metric names as in BENCHMARK.json."""
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"smoke-{workload}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            run.import_velo()
            decks = tiny(workload, workdir)
            first = run.Client()
            first.run_passes(decks, 7, passes=2)
            assert not first.wrong and not first.failed, first.wrong
            assert set(run.end_to_end(first, 0.5)) == e2e
            plain, traced, tracer = run.traced_pairs(decks, 7, 0)
            assert not (plain.wrong or plain.failed or traced.wrong or traced.failed), \
                plain.wrong + traced.wrong
            assert set(run.per_layer(plain, traced, tracer)) == layers
            leftover = [f"{n}.{a}" for n, m in sys.modules.items() if n.split(".")[0] == "velo"
                        for a, obj in vars(m).items() if hasattr(obj, "__wrapped__")]
            assert not leftover, f"rebound names not restored: {leftover}"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"smoke {workload}: {first.jobs} + {plain.jobs} + {traced.jobs} jobs ok")


def check_wrong_expectation() -> None:
    """Each workload's checks reject output that disagrees with a corrupted expected value."""
    vertices, gauge, roundtrip = nets.polytope_vertices, nets.gauge, workloads.check_roundtrip
    patches = {
        "nets2d": (nets, "CYCLE_COUNTS", {k: v + 1 for k, v in nets.CYCLE_COUNTS.items()}),
        "nets3d": (nets, "polytope_vertices",
                   lambda base, cells: [tuple(2 * c for c in v) for v in vertices(base, cells)]),
        "realize": (workloads, "check_roundtrip",
                    lambda points: roundtrip([tuple(c + 1 for c in p) for p in points])),
        "walks": (nets, "gauge", lambda base, cells, x: gauge(base, cells, x) + 1),
    }
    for workload, (module, attr, fake) in patches.items():
        saved = getattr(module, attr)
        setattr(module, attr, fake)
        workdir = os.path.join(run.WORK, f"smoke-wrong-{workload}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            client = run.Client()
            client.run_passes(tiny(workload, workdir), 7, passes=1)
        finally:
            setattr(module, attr, saved)
            shutil.rmtree(workdir, ignore_errors=True)
        assert client.wrong and not client.failed, f"{workload}: a wrong expectation went unnoticed"
        print(f"smoke {workload}: wrong expectation caught ({client.wrong[0][:70]}...)")


def check_refuses_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, the benchmark fails."""
    bare = os.path.join(run.WORK, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "realize",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"smoke: without src/ the benchmark exits {proc.returncode}: {proc.stderr.strip()}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    check_closed_forms()
    print("smoke: closed forms match brute force")
    check_metrics(spec)
    check_wrong_expectation()
    check_refuses_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
