"""Measure the polytopes that acceptance criterion 9 draws; the realize deck follows them.

    python3 perfbench/criterion9.py --draws 30000 > perfbench/criterion9.json
    python3 perfbench/criterion9.py --draws 300 --time   # also time the CLI round trip

Criterion 9 (tests/test_acceptance.py) draws d uniformly from {1, 2, 3}, 1 to
6 points with coordinates num/den, |num| <= 24, 1 <= den <= 12, and takes their
convex hull.  The cost of `velo realize` and of reading its graph back grows
with the lcm of the hull vertices' denominators (the ring length), so this
prints how often each (d, hull vertices, lcm) occurs, as JSON.  With --time
it also runs every draw through `realize` and `polytope --json`, as the
benchmark does, and prints the job rate and latency percentiles on stderr.
This tool uses the test suite's generator and velo's own hull; the benchmark
itself does not.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import random_rational_points  # noqa: E402
from velo import convex_hull  # noqa: E402
import velo.cli  # noqa: E402


def draw(rng: random.Random):
    """One criterion-9 draw: the raw points, as the test makes them."""
    dim = rng.choice([1, 2, 3])
    return dim, random_rational_points(rng, dim, rng.randint(1, 6), max_num=24, max_den=12)


def time_roundtrip(dim: int, points, workdir: str) -> list[float]:
    src, dgf = os.path.join(workdir, "p.json"), os.path.join(workdir, "p.dgf")
    with open(src, "w") as fh:
        json.dump({"dim": dim, "vertices": [[str(c) for c in p] for p in points]}, fh)
    times = []
    for argv, target in ((["realize", src], dgf), (["polytope", "--json", dgf], None)):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            velo.cli.main(argv)
        times.append(time.perf_counter() - start)
        if target:
            with open(target, "w") as fh:
                fh.write(out.getvalue())
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=30000)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--time", action="store_true")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    hist: collections.Counter = collections.Counter()
    jobs: list[float] = []
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        for _ in range(args.draws):
            dim, points = draw(rng)
            hull = convex_hull(points)
            lcm = math.lcm(*(c.denominator for v in hull.vertices for c in v))
            hist[dim, len(hull.vertices), lcm] += 1
            if args.time:
                jobs += time_roundtrip(dim, points, workdir)
    if jobs:
        sys.stderr.write(f"{len(jobs)} jobs: {len(jobs) / sum(jobs):.4g} jobs/s, "
                         f"p50 {statistics.median(jobs):.4g} s, "
                         f"p90 {statistics.quantiles(jobs, n=10)[8]:.4g} s\n")
    print(json.dumps({
        "draws": args.draws,
        "seed": args.seed,
        "columns": ["dim", "hull_vertices", "lcm", "count"],
        "rows": [[*key, n] for key, n in sorted(hist.items())],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
