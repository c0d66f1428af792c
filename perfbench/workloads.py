"""The four workloads: seeded input corpora, the CLI jobs run on them, and output checks.

Every workload is a fixed multiset of job classes; the seed only draws the
inputs inside each class (gauge potentials, directions, polytope coordinates,
the cycles a trajectory mixes) and the order jobs run in, so cost per pass
does not depend on the seed.  nets2d, nets3d and walks have two decks of
equal composition that runs alternate between (nets: the plain and the
gauge-moved file of a supercell); realize has one.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import nets

F = Fraction
STRONG = "StronglyConnectedPeriodic"


class CheckError(Exception):
    """A job printed a wrong result."""


class Job(NamedTuple):
    key: str  # jobs that share a key must print byte-identical output
    argv: tuple[str, ...]
    check: Callable[[str], None]  # raises CheckError on a wrong output


Unit = tuple[Job, ...]  # jobs run back to back, in order
Deck = list[Unit]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _vec(tokens: Sequence[str]) -> tuple[Fraction, ...]:
    return tuple(F(t) for t in tokens)


# ---------------------------------------------------------------------------
# crystal nets: nets2d and nets3d


class Expected(NamedTuple):
    """Exact answers for one supercell, derived in nets.py without velo."""

    net: nets.Net
    base: nets.Net
    cells: tuple[int, ...]
    vertices: list[tuple[Fraction, ...]]
    facets: list[tuple[tuple[int, ...], int]]
    cycles: int | None

    @classmethod
    def of(cls, base_name: str, cells: tuple[int, ...]) -> "Expected":
        base = nets.BASE[base_name]
        verts = nets.polytope_vertices(base, cells)
        count = nets.CYCLE_COUNTS.get((base_name, cells))
        return cls(nets.supercell(base, cells), base, cells, verts, nets.facets(verts), count)

    def in_polytope(self, v: Sequence[Fraction]) -> bool:
        return nets.gauge(self.base, self.cells, v) <= 1


def _check_polytope(exp: Expected, dim: int, vertices, facets) -> None:
    expect(dim == exp.net.dim, f"dim {dim}, expected {exp.net.dim}")
    expect(sorted(vertices) == exp.vertices, f"{exp.net.name}: polytope vertices differ")
    expect(sorted(facets) == exp.facets, f"{exp.net.name}: facets differ")


def _check_radii(exp: Expected, inrad: Fraction, circum: Fraction, isotropic: bool) -> None:
    want = nets.radii_sq(exp.vertices, exp.facets)
    expect((inrad, circum) == want, f"{exp.net.name}: radii {inrad}, {circum}, expected {want}")
    expect(not isotropic, f"{exp.net.name}: reported isotropic")


def _parse_polytope_lines(lines: Sequence[str]):
    dim, vertices, facets = None, [], []
    for line in lines:
        parts = line.split()
        if parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "vertex":
            vertices.append(_vec(parts[1:]))
        elif parts[0] == "facet":
            facets.append((tuple(int(t) for t in parts[1:-2]), int(parts[-1])))
    return dim, vertices, facets


def check_polytope_text(exp: Expected) -> Callable[[str], None]:
    def check(out: str) -> None:
        _check_polytope(exp, *_parse_polytope_lines(out.splitlines()))

    return check


def check_cycles_text(exp: Expected) -> Callable[[str], None]:
    """Every route closes, repeats no vertex, starts at its least rotation; routes are sorted."""
    net = exp.net

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(lines and lines[-1].startswith("cycles "), "missing cycle count")
        count = int(lines[-1].split()[1])
        expect(count == len(lines) - 1, "cycle count does not match the routes listed")
        if exp.cycles is not None:
            expect(count == exp.cycles, f"{net.name}: {count} cycles, expected {exp.cycles}")
        previous: tuple[int, ...] = ()
        for line in lines[:-1]:
            tokens = line.split()
            names, edges = tokens[0::2], [int(t[2:-2]) for t in tokens[1::2]]
            for eid, a, b in zip(edges, names, names[1:]):
                s, t, _ = net.edges[eid]
                expect((net.vertices[s], net.vertices[t]) == (a, b), f"bad route {line!r}")
            expect(names[0] == names[-1] and len(set(names[:-1])) == len(edges),
                   f"route {line!r} is not a simple cycle")
            # edge ids of a simple cycle are distinct: the least rotation starts at the least id
            expect(edges[0] == min(edges), f"route {line!r} is not canonical")
            expect(tuple(edges) > previous, "routes are not sorted and distinct")
            previous = tuple(edges)

    return check


def _check_report(exp: Expected, rep: dict) -> None:
    net = exp.net
    expect(rep["vertices"] == len(net.vertices), "vertex count")
    expect(rep["edges"] == len(net.edges), "edge count")
    expect(rep["verdict"] == STRONG, f"{net.name}: verdict {rep['verdict']}")
    expect((rep["scc_count"], rep["cycle_lattice_rank"], rep["lattice_index"], rep["cone_full"])
           == (1, net.dim, 1, True), f"{net.name}: connectivity fields")
    if exp.cycles is not None:
        expect(rep["cycles"] == exp.cycles, f"{net.name}: {rep['cycles']} cycles")
    vels = rep["velocities"]
    expect(vels == sorted(set(vels)), "velocities not sorted and distinct")
    expect(all(exp.in_polytope(v) for v in vels), f"{net.name}: velocity outside the polytope")
    expect(set(exp.vertices) <= set(vels), f"{net.name}: a vertex is not a basic velocity")
    _check_polytope(exp, *rep["polytope"])
    _check_radii(exp, *rep["radii"])


def check_report_text(exp: Expected) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = out.splitlines()
        fields = {}
        for line in lines:
            key, _, value = line.partition(" ")
            fields.setdefault(key, value)
        rep = {
            "vertices": int(fields["vertices"]),
            "edges": int(fields["edges"]),
            "verdict": fields["verdict"],
            "scc_count": int(fields["scc_count"]),
            "cycle_lattice_rank": int(fields["cycle_lattice_rank"]),
            "lattice_index": int(fields["lattice_index"]),
            "cone_full": fields["cone_full"] == "true",
            "cycles": int(fields["cycles"]),
            "velocities": [_vec(l.split()[1:]) for l in lines if l.startswith("velocity ")],
            "polytope": _parse_polytope_lines(
                [l for l in lines if l.split()[0] in ("dim", "vertex", "facet")]),
            "radii": (F(fields["inradius2"]), F(fields["circumradius2"]),
                      fields["isotropic"] == "true"),
        }
        _check_report(exp, rep)

    return check


def check_report_json(exp: Expected) -> Callable[[str], None]:
    def check(out: str) -> None:
        data = json.loads(out)
        expect(data["vertices"] == list(exp.net.vertices), "vertex names")
        poly, an = data["polytope"], data["anisotropy"]
        rep = dict(data, vertices=len(data["vertices"]))
        rep["velocities"] = [_vec(v) for v in data["basic_velocities"]]
        rep["polytope"] = (poly["dim"], [_vec(v) for v in poly["vertices"]],
                           [(tuple(int(a) for a in f["a"]), int(f["b"])) for f in poly["facets"]])
        rep["radii"] = (F(an["inradius2"]), F(an["circumradius2"]), an["isotropic"])
        _check_report(exp, rep)

    return check


def check_anisotropy_text(exp: Expected) -> Callable[[str], None]:
    def check(out: str) -> None:
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        _check_radii(exp, F(fields["inradius2"]), F(fields["circumradius2"]),
                     fields["isotropic"] == "true")

    return check


def check_norm_text(exp: Expected, x: Sequence[int]) -> Callable[[str], None]:
    want = nets.gauge(exp.base, exp.cells, x)

    def check(out: str) -> None:
        expect(out == f"{want}\n", f"{exp.net.name}: norm {out.strip()} of {x}, expected {want}")

    return check


def check_morphism_text(src: Expected, dst: Expected) -> Callable[[str], None]:
    inside = all(dst.in_polytope(v) for v in src.vertices)
    want = "inconclusive\n" if inside else "morphism impossible\n"

    def check(out: str) -> None:
        expect(out == want, f"{src.net.name} -> {dst.net.name}: {out.strip()!r}, expected {want.strip()!r}")

    return check


def check_union_text(parts: Sequence[Expected]) -> Callable[[str], None]:
    """`polytope` of a disjoint union: one component per part, in order."""

    def check(out: str) -> None:
        blocks = out.split("\ncomponent ")
        expect(blocks[0] == f"dim {parts[0].net.dim}\ncomponents {len(parts)}", "union header")
        expect(len(blocks) == len(parts) + 1, "one block per component")
        for i, (exp, block) in enumerate(zip(parts, blocks[1:])):
            lines = block.splitlines()
            names = ",".join(f"p{i}_{v}" for v in exp.net.vertices)
            expect(lines[0] == f"{i} vertices {names}", f"component {i} vertices")
            _check_polytope(exp, *_parse_polytope_lines(lines[1:]))

    return check


_CHECKS = {
    "cycles": check_cycles_text,
    "polytope": check_polytope_text,
    "report": check_report_text,
    "report --json": check_report_json,
    "anisotropy": check_anisotropy_text,
}


def _net_decks(rng: random.Random, workdir: str, plan) -> list[Deck]:
    """Two decks; each (supercell, command) runs on the plain file in one, the gauge copy in the other."""
    decks: list[Deck] = [[], []]
    for base_name, cells, commands in plan:
        exp = Expected.of(base_name, cells)
        potential = [[rng.randint(-3, 3) for _ in range(exp.net.dim)] for _ in exp.net.vertices]
        files = [_write(workdir, exp.net.name + ".dgf", nets.dgf_text(exp.net)),
                 _write(workdir, exp.net.name + ".gauge.dgf",
                        nets.dgf_text(nets.gauge_moved(exp.net, potential)))]
        jobs = []
        for command in commands:
            if command == "norm":  # one seeded direction
                x = [rng.randint(-3, 3) for _ in range(exp.net.dim)]
                x[rng.randrange(exp.net.dim)] = rng.choice([-2, -1, 1, 2])
                args = ("norm", "{}") + tuple(map(str, x))
                jobs.append((args, check_norm_text(exp, x)))
            else:
                head, *flags = command.split()
                jobs.append(((head, "{}", *flags), _CHECKS[command](exp)))
        for args, check in jobs:
            key = exp.net.name + ":" + " ".join(args)
            order = rng.sample(files, 2)
            for deck, path in zip(decks, order):
                deck.append((Job(key, tuple(path if a == "{}" else a for a in args), check),))
    return decks


# Command lists per supercell; a repeated command runs once per repeat.  sq 4x4
# (29,440 cycles) is where enumeration dominates; it skips `report --json`,
# which repeats `report`'s work, to keep a pass near seven seconds.  The sq 4x3
# reports run twice so that p90 falls inside their block of ~0.2 s jobs.
_ALL2D = ["cycles", "polytope", "report", "report --json"]
NETS2D = [("sq", c, _ALL2D) for c in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]]
NETS2D += [("sq", (4, 3), _ALL2D + ["report", "report --json"])]
NETS2D += [("sq", (4, 4), ["cycles", "polytope", "report"])]
NETS2D += [("hc", c, _ALL2D) for c in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]]

# dia 2x2x1 runs `polytope` only (1.3 s, nearly all LP); cub 2x2x2 is left out
# because one polytope call takes 14 s.  Each "norm" is one seeded direction;
# the counts put the median inside the block of cub 2x2x1 jobs.
_ALL3D = ["polytope", "report", "anisotropy"]
NETS3D = [("cub", (1, 1, 1), _ALL3D + ["norm"]), ("cub", (2, 1, 1), _ALL3D + ["norm"] * 2)]
NETS3D += [(b, c, _ALL3D + ["norm"] * 3) for b, c in [("cub", (2, 2, 1)), ("dia", (1, 1, 1)),
                                                     ("dia", (2, 1, 1))]]
NETS3D += [("dia", (2, 2, 1), ["polytope"])]


def build_nets2d(rng: random.Random, workdir: str) -> list[Deck]:
    """The supercell decks plus check-morphism both ways (contains_polytope) and a
    graph of two components (velocity_set), which nothing else runs."""
    decks = _net_decks(rng, workdir, NETS2D)
    sq, hc = Expected.of("sq", (1, 1)), Expected.of("hc", (2, 1))
    path = {e.net.name: _write(workdir, e.net.name + ".morph.dgf", nets.dgf_text(e.net))
            for e in (sq, hc)}
    union = _write(workdir, "union.dgf", nets.dgf_text(nets.disjoint_union([sq.net, hc.net])))
    extra = [Job(f"morph {a.net.name} {b.net.name}",
                 ("check-morphism", path[a.net.name], path[b.net.name]), check_morphism_text(a, b))
             for a, b in ((sq, hc), (hc, sq))]
    extra.append(Job("union", ("polytope", union), check_union_text([sq, hc])))
    for deck in decks:
        deck.extend((job,) for job in extra)
    return decks


def build_nets3d(rng: random.Random, workdir: str) -> list[Deck]:
    return _net_decks(rng, workdir, NETS3D)


# ---------------------------------------------------------------------------
# realize: random rational polytopes and their round trip


def _prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out


def all_vertices(points) -> bool:
    """Every point is a vertex of their convex hull.

    Up to d + 1 points must be affinely independent.  More points must span
    dimension 2 or 3 with exactly d points on every facet; sets with more are
    refused, which keeps the test exact without a hull algorithm."""
    dim = len(points[0])
    if len(points) <= dim + 1:
        return nets.affine_weights(points[0], points) is not None
    scale = math.lcm(*(c.denominator for p in points for c in p))
    points = [tuple(int(c * scale) for c in p) for p in points]  # integer arithmetic is faster
    facets = nets.facets(points)
    on = [[p for p in points if sum(a * c for a, c in zip(n, p)) == b] for n, b in facets]
    return bool(facets) and all(len(f) == dim for f in on) and \
        {p for f in on for p in f} == set(points)


def random_polytope(rng: random.Random, dim: int, count: int, lcm: int):
    """`count` points, each a vertex of their hull, whose coordinates have
    |num| <= 24, denominators <= 12 and lcm(denominators) exactly `lcm`."""
    divisors = [q for q in range(1, 13) if lcm % q == 0]
    slots = dim * count
    powers = _prime_powers(lcm)
    while True:
        dens = [rng.choice(divisors) for _ in range(slots)]
        packed = [1] * slots
        for q in powers:
            packed[rng.randrange(slots)] *= q
        if max(packed) > 12:
            continue
        dens = [p if p > 1 else d for p, d in zip(packed, dens)]
        coords = []
        for den in dens:
            num = rng.randint(-24, 24)
            while math.gcd(num, den) != 1:
                num = rng.randint(-24, 24)
            coords.append(F(num, den))
        points = [tuple(coords[i * dim:(i + 1) * dim]) for i in range(count)]
        if all_vertices(points):
            return sorted(points)


def criterion9_strata(size: int) -> list[tuple[int, int, int]]:
    """`size` (d, hull vertices, lcm) classes at evenly spaced quantiles of the
    criterion-9 histogram (criterion9.json), ordered by lcm, which sets the cost."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "criterion9.json")) as fh:
        rows = sorted(json.load(fh)["rows"], key=lambda r: (r[2], r[0], r[1]))
    total = sum(r[3] for r in rows)
    picks, seen = [], 0
    for dim, count, lcm, n in rows:
        seen += n
        while len(picks) < size and (len(picks) + 0.5) * total / size < seen:
            picks.append((dim, count, lcm))
    return picks


def check_realize(path: str, dim: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        expect(out.startswith(f"dim {dim}\n"), "realize output is not a DGF graph")
        with open(path, "w") as fh:
            fh.write(out)

    return check


def check_roundtrip(points) -> Callable[[str], None]:
    def check(out: str) -> None:
        data = json.loads(out)
        got = sorted(_vec(v) for v in data["vertices"])
        expect(got == points, f"round trip gave {got}, expected {points}")

    return check


# Polytopes per deck.  At 100 the rarest costly class, lcm 27,720 (1.5% of
# criterion-9 draws, about 1.6 s a round trip), gets one polytope per deck.
REALIZE_PER_DECK = 100


def build_realize(rng: random.Random, workdir: str) -> list[Deck]:
    """One deck of the criterion-9 strata; the seed draws each polytope in its
    class.  One deck, not two, halves the files set-up writes, whose time
    follows the host's disk more than its CPU."""
    deck: Deck = []
    for serial, (dim, count, lcm) in enumerate(criterion9_strata(REALIZE_PER_DECK)):
        points = random_polytope(rng, dim, count, lcm)
        name = f"p{serial}_d{dim}_n{count}_l{lcm}"
        poly = {"dim": dim, "vertices": [[str(c) for c in p] for p in points]}
        src = _write(workdir, name + ".json", json.dumps(poly))
        dgf = os.path.join(workdir, name + ".dgf")
        deck.append((
            Job(name + ":realize", ("realize", src), check_realize(dgf, dim)),
            Job(name + ":polytope", ("polytope", "--json", dgf), check_roundtrip(points)),
        ))
    return [deck]


# ---------------------------------------------------------------------------
# walks: the BFS growth-norm oracle and scheduled trajectories on base cells


def _symmetries(base: nets.Net) -> list[Callable[[Sequence[int]], list[int]]]:
    """Linear maps of the lattice that map the net's velocity polytope onto itself
    and keep the max-norm, so that every image of a direction costs the same."""
    d = base.dim
    if len(base.vertices) == 1:
        signs = list(itertools.product((1, -1), repeat=d))
    else:
        signs = [(1,) * d, (-1,) * d]
    return [lambda x, p=p, s=s: [si * x[pi] for si, pi in zip(s, p)]
            for p in itertools.permutations(range(d)) for s in signs]


def check_oracle(base: nets.Net, x: Sequence[int], n: int) -> Callable[[str], None]:
    cells = (1,) * base.dim
    want = nets.gauge(base, cells, x)

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(lines[0] == str(want), f"{base.name}: norm {lines[0]} of {x}, expected {want}")
        oracle = F(lines[1].split()[1])
        gap = F(lines[2].split()[1])
        expect(gap == abs(oracle - want), "gap is not |oracle - norm|")
        expect(gap <= F(4, n), f"{base.name}: oracle gap {gap} > 4/{n}")

    return check


def check_simulate(base: nets.Net, cycles, weights) -> Callable[[str], None]:
    cells = (1,) * base.dim
    target = [sum((w * F(sum(base.edges[e][2][j] for e in c), len(c))
                   for c, w in zip(cycles, weights)), F(0)) for j in range(base.dim)]

    def check(out: str) -> None:
        fields = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
        expect(list(_vec(fields["target"])) == target, f"target {fields['target']} != {target}")
        vel = _vec(fields["velocity"])
        gap = max(abs(a - b) for a, b in zip(vel, target))
        expect(F(fields["target_gap"][0]) == gap, "target_gap is not |velocity - target|")
        expect(gap <= F(1, 20), f"{base.name}: target gap {gap} > 1/20")
        expect(F(fields["polytope_gap"][0]) == 0 and nets.gauge(base, cells, vel) <= 1,
               "empirical velocity outside the polytope")
        expect(int(fields["steps"][0]) > 0, "empty trajectory")

    return check


# Oracle jobs: (net, base direction, n values); the seed picks a symmetric image
# of the direction.  Simulate jobs: (net, cycle weights, kmax values); the seed
# picks the cycles.  dia at n = 12 holds the largest BFS window and kmax 128
# schedules the longest trajectories (0.7 M steps).  Job times on a shared host
# vary by +-20% from one run of a job to the next, so p90 is placed in the
# middle of a block of alike jobs: the four kmax = 128 jobs are the slowest
# fifth of a 20-job pass, and a 100-job run holds 20 of them.
ORACLE = [("sq", (2, 1), (16, 32, 64)), ("hc", (2, 1), (16, 32, 64)),
          ("cub", (1, 1, 0), (4, 8, 12)), ("dia", (1, 1, 0), (4, 8, 12))]
SIMULATE = [("sq", (F(1, 2), F(1, 2)), (64, 128)),
            ("hc", (F(1, 3), F(1, 3), F(1, 3)), (64, 128)),
            ("cub", (F(1, 2), F(1, 4), F(1, 4)), (64, 128)),
            ("dia", (F(2, 3), F(1, 3)), (64, 128))]


def build_walks(rng: random.Random, workdir: str) -> list[Deck]:
    decks: list[Deck] = [[], []]
    files = {name: _write(workdir, name + ".dgf", nets.dgf_text(base))
             for name, base in nets.BASE.items()}
    for deck in decks:
        for name, x0, ns in ORACLE:
            base = nets.BASE[name]
            for n in ns:
                x = rng.choice(_symmetries(base))(x0)
                args = ("norm", files[name], *map(str, x), "--oracle", "--n", str(n))
                deck.append((Job(" ".join(args), args, check_oracle(base, x, n)),))
        for name, weights, kmaxes in SIMULATE:
            base = nets.BASE[name]
            cycles = nets.simple_cycles(base)
            for kmax in kmaxes:
                picks = rng.sample(range(len(cycles)), len(weights))
                args = ("simulate", files[name], "--weights", ",".join(map(str, weights)),
                        "--cycles", ",".join(map(str, picks)), "--kmax", str(kmax))
                deck.append((Job(" ".join(args), args,
                                 check_simulate(base, [cycles[i] for i in picks], weights)),))
    return decks


WORKLOADS = {
    "nets2d": build_nets2d,
    "nets3d": build_nets3d,
    "realize": build_realize,
    "walks": build_walks,
}
