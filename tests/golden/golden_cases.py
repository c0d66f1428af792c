"""Seeded CLI invocations, and the hash of what each one prints.

Every subcommand runs with and without ``--json`` on the test fixtures; on
square, honeycomb, cubic and diamond supercells up to sq_3x3 and dia_2x1x1;
on a gauge-moved cell, a chained graph, a two-component graph, graphs without
cycles, a realized ring and seeded random graphs; on polytope JSON files for
``realize``; and on error inputs (a missing file, malformed DGF and polytope
JSON, out-of-range cycle indices).  Each runs under ``VELO_BUDGET`` unset, 1,
3 and 40.

``replay`` writes the inputs into a directory and runs every invocation
in-process there, on relative paths, so that no absolute path enters a hash.
One sha256 covers the exit code, stdout, stderr and the SVG file a run wrote.
No invocation is an argparse usage error or ``--help``: their wording differs
between Python versions.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path

from helpers import HONEYCOMB_DGF, PM2_DGF, SQUARE_DGF
from velo.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
import nets  # noqa: E402  (closed-form crystal nets, no velo inside)

HASHES = Path(__file__).with_name("hashes.json")
SEED = 16
BUDGETS = (None, "1", "3", "40")
SVG = "out.svg"


def _random_graph(rng: random.Random, dim: int) -> nets.Net:
    """A Hamiltonian ring plus a few random edges, displacements in [-2, 2]."""
    n = rng.randint(2, 4)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 4))]
    edges = [(s, t, tuple(rng.randint(-2, 2) for _ in range(dim))) for s, t in pairs]
    return nets.Net("random", dim, tuple(f"v{i}" for i in range(n)), tuple(edges))


CHAINED_DGF = """\
dim 2
vertex A
vertex B
vertex c1
vertex c2
vertex c3
edge A B 0 0
edge A c1 0 1
edge c1 c2 0 0
edge c2 B 0 0
edge A B -1 0
edge B A 0 0
edge B c3 0 -1
edge c3 A 0 0
edge B A 1 0
"""

RING_VERTICES = ((20, 0), (0, 15), (-12, -12))  # (1/3, 0), (0, 1/4), (-1/5, -1/5) times 60

POLYTOPES = {
    "triangle": '{"dim": 2, "vertices": [["1/2", "0"], ["0", "1/3"], ["-1/4", "-1/5"]]}',
    "noisy": '{"dim": 2, "vertices": [["1/2", "0"], ["0", "1/3"], ["1/12", "2/45"], '
             '["-1/4", "-1/5"], ["1/2", "0"]]}',
    "ring60": '{"dim": 2, "vertices": [["1/3", "0"], ["0", "1/4"], ["-1/5", "-1/5"]]}',
    "hexagon": '{"dim": 2, "vertices": [["-1/2", "-1/2"], ["-1/2", "0"], ["0", "-1/2"], '
               '["0", "1/2"], ["1/2", "0"], ["1/2", "1/2"]]}',
    "point": '{"dim": 3, "vertices": [["1/2", "0", "-1"]]}',
    "segment": '{"dim": 1, "vertices": [["-2"], ["3/4"], ["0"]]}',
    "flat": '{"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["1/2", "1/2"]]}',
    "simplex3": '{"dim": 3, "vertices": [["1/2", "0", "0"], ["0", "1/3", "0"], '
                '["0", "0", "1/4"], ["-1/6", "-1/6", "-1/6"]]}',
    "empty": '{"dim": 2, "vertices": []}',
    "notjson": "not json",
    "badtypes": '{"dim": 1, "vertices": [[1], [-1]]}',
    "zeroden": '{"dim": 1, "vertices": [["1/0"]]}',
    "ragged": '{"dim": 2, "vertices": [["1", "0"], ["1"]]}',
}


def _build() -> tuple[dict[str, str], list[list[str]]]:
    """The input files (name -> text) and the argument lists, without budgets."""
    rng = random.Random(SEED)
    graphs = {"honeycomb": HONEYCOMB_DGF, "square": SQUARE_DGF, "pm2": PM2_DGF}
    for base, cells in [("sq", (2, 1)), ("sq", (2, 2)), ("sq", (3, 3)), ("hc", (2, 1)),
                        ("hc", (2, 2)), ("cub", (1, 1, 1)), ("cub", (2, 1, 1)),
                        ("dia", (1, 1, 1)), ("dia", (2, 1, 1))]:
        net = nets.supercell(nets.BASE[base], cells)
        graphs[net.name] = nets.dgf_text(net)
    net = nets.supercell(nets.BASE["hc"], (2, 1))
    potential = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in net.vertices]
    graphs["hc_2x1_moved"] = nets.dgf_text(nets.gauge_moved(net, potential))
    graphs["chained"] = CHAINED_DGF
    hc, sq = nets.BASE["hc"], nets.BASE["sq"]
    graphs["two_components"] = nets.dgf_text(nets.Net("two", 2, (*hc.vertices, "S"), (
        *hc.edges, *((s + 2, t + 2, d) for s, t, d in sq.edges), (0, 2, (0, 0)))))
    graphs["acyclic"] = "dim 2\nvertex A\nvertex B\nedge A B 1 0\n"
    graphs["bare"] = "dim 3\nvertex O\n"
    ring = [(i, i + 1, (0, 0)) for i in range(59)] + [(59, 0, w) for w in RING_VERTICES]
    graphs["ring60"] = nets.dgf_text(nets.Net("ring60", 2, tuple(f"u{i}" for i in range(1, 61)),
                                              tuple(ring)))
    for k, dim in enumerate((1, 2, 3, 2)):
        graphs[f"random{k}"] = nets.dgf_text(_random_graph(rng, dim))

    files = {f"{name}.dgf": text for name, text in graphs.items()}
    files.update((f"{name}.json", text) for name, text in POLYTOPES.items())
    files["bad.dgf"] = "dim 1\nvertex A\nedge A C 0\n"
    runs: list[list[str]] = []
    for name, text in graphs.items():
        f, dim = f"{name}.dgf", int(text.split()[1])
        xs = [[str(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(2)]
        picks = f"{rng.randrange(4)},{rng.randrange(6)}"
        metric = ";".join(",".join(str(rng.randint(2, 4)) if i == j else "1" if i + j == 1 else "0"
                                   for j in range(dim)) for i in range(dim))
        runs += [
            ["polytope", f], ["polytope", f, "--json"], ["polytope", f, "--svg", SVG],
            ["norm", f, *xs[0]], ["norm", f, *xs[1], "--json"],
            ["norm", f, *xs[0], "--oracle", "--n", "2"],
            ["norm", f, *xs[1], "--oracle", "--n", "3", "--json"],
            ["cycles", f], ["cycles", f, "--json"],
            ["simulate", f, "--weights", "1/3,2/3", "--cycles", picks, "--kmax", "6"],
            ["simulate", f, "--weights", "1/4,3/4", "--cycles", picks, "--kmax", "5", "--json"],
            ["simulate", f, "--weights", "1", "--kmax", "4"],
            ["anisotropy", f], ["anisotropy", f, "--json"],
            ["anisotropy", f, "--metric", metric, "--json"],
            ["report", f], ["report", f, "--json"],
        ]
    runs += [["realize", f"{name}.json"] for name in POLYTOPES]
    runs += [["check-morphism", f"{a}.dgf", f"{b}.dgf"] for a, b in [
        ("square", "honeycomb"), ("honeycomb", "square"), ("sq_2x2", "hc_2x1"),
        ("hc_2x2", "sq_2x1"), ("dia_1x1x1", "cub_1x1x1"), ("cub_2x1x1", "dia_2x1x1"),
        ("pm2", "pm2"), ("two_components", "honeycomb"), ("square", "cub_1x1x1"),
        ("ring60", "honeycomb")]]
    runs += [
        ["polytope", "missing.dgf"], ["report", "missing.dgf", "--json"],
        ["realize", "missing.json"], ["polytope", "bad.dgf"], ["cycles", "bad.dgf", "--json"],
        ["norm", "honeycomb.dgf", "1", "0", "1"],
        ["simulate", "honeycomb.dgf", "--weights", "1", "--cycles", "99999"],
        ["simulate", "square.dgf", "--weights", "1", "--cycles", "-1", "--json"],
        ["simulate", "honeycomb.dgf", "--weights", "1/2,1/2", "--cycles", "0,a"],
        ["simulate", "honeycomb.dgf", "--weights", "1/2,1/2", "--cycles", "1"],
        ["simulate", "honeycomb.dgf", "--weights", "1/0,1"],
        ["simulate", "square.dgf", "--weights", "1", "--kmax", "0"],
        ["anisotropy", "honeycomb.dgf", "--metric", "1/0,0;0,1"],
        ["anisotropy", "honeycomb.dgf", "--metric", "1,0"],
        ["anisotropy", "honeycomb.dgf", "--metric", "1,2;2,1"],
    ]
    return files, runs


def invocations() -> tuple[dict[str, str], list[tuple[str | None, list[str]]]]:
    """The input files and every (VELO_BUDGET value, argument list) pair."""
    files, runs = _build()
    pairs = [(budget, argv) for budget in BUDGETS for argv in runs]
    pairs += [(bad, ["polytope", "honeycomb.dgf"]) for bad in ("0", "-3", "many")]
    assert len({key(*pair) for pair in pairs}) == len(pairs), "two invocations share a key"
    return files, pairs


def key(budget: str | None, argv: list[str]) -> str:
    return ("" if budget is None else f"VELO_BUDGET={budget} ") + "velo " + " ".join(argv)


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = main(list(argv))
        except Exception as exc:  # an escaped exception is behaviour too
            code = f"raised {type(exc).__name__}: {exc}"
    svg = Path(SVG)
    drawn = svg.read_text() if svg.exists() else ""
    svg.unlink(missing_ok=True)
    record = "\0".join((str(code), out.getvalue(), err.getvalue(), drawn))
    return hashlib.sha256(record.encode()).hexdigest()


def replay(directory: Path) -> dict[str, str]:
    """Write the inputs into ``directory``, run every invocation there, and
    map each invocation's key to its hash, in generation order."""
    files, pairs = invocations()
    for name, text in files.items():
        (directory / name).write_text(text)
    cwd, saved = os.getcwd(), os.environ.get("VELO_BUDGET")
    hashes: dict[str, str] = {}
    try:
        os.chdir(directory)
        for budget, argv in pairs:
            if budget is None:
                os.environ.pop("VELO_BUDGET", None)
            else:
                os.environ["VELO_BUDGET"] = budget
            hashes[key(budget, argv)] = _run(argv)
    finally:
        os.chdir(cwd)
        if saved is None:
            os.environ.pop("VELO_BUDGET", None)
        else:
            os.environ["VELO_BUDGET"] = saved
    return hashes
