"""Command-line front end.

Subcommands cover the whole pipeline: polytope, norm, cycles, simulate,
realize, check-morphism, anisotropy, report.  Each command with --json builds
one payload and renders it either as indented JSON or as text lines read off
that same payload.  Every number printed, in JSON, text and SVG labels, is
the ``str`` of its ``Fraction``; exit codes are 0 (success), 1 (input error),
2 (budget exceeded), 3 (connectivity verdict failure).  The VELO_BUDGET
environment variable overrides every default resource budget at once.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .cycles import DEFAULT_MAX_CYCLES, path_displacement
from .dynamics import DEFAULT_PREFIX_BUDGET, build_plan, schedule_totals
from .errors import BudgetError, NotStronglyConnectedError, VeloError
from .geometry import (
    Anisotropy,
    anisotropy,
    contains_polytope,
    gauge_norm,
    parse_rational,
    polytope_from_json,
    polytope_to_dict,
)
from .graph import (
    DEFAULT_PATCH_BUDGET,
    gamma_norm_oracle,
    parse_dgf,
    serialize_dgf,
)
from .invariants import DEFAULT_ORACLE_BUDGET, VERDICT_STRONG, ConnectivityReport, GraphAnalysis
from .realize import DEFAULT_REALIZE_BUDGET, realize
from .svg import polytope_svg


@dataclass(frozen=True)
class Budgets:
    max_cycles: int = DEFAULT_MAX_CYCLES
    patch: int = DEFAULT_PATCH_BUDGET
    prefix: int = DEFAULT_PREFIX_BUDGET
    realize: int = DEFAULT_REALIZE_BUDGET
    oracle: int = DEFAULT_ORACLE_BUDGET


def _fail(message: str, code: int = 1) -> int:
    """The one error path: an ``error:`` line on stderr, and the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _analyze(path: str, budgets: Budgets) -> GraphAnalysis:
    with open(path, "rb") as fh:
        graph = parse_dgf(fh.read())
    return GraphAnalysis(graph, max_cycles=budgets.max_cycles, oracle_budget=budgets.oracle)


def _word(value) -> str:
    """One payload value as text: lists space-separated, booleans as true/false, None as -."""
    if isinstance(value, list):
        return " ".join(map(_word, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return "-" if value is None else str(value)


def _lines(payload: dict, *skip: str) -> list[str]:
    """A ``key value`` line per payload entry, except the skipped keys."""
    return [f"{key} {_word(value)}" for key, value in payload.items() if key not in skip]


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> int:
    """Write the payload as indented JSON under --json, else its text lines."""
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.json else "\n".join(lines) + "\n")
    return 0


def _polytope_text(p: dict, note: str | None = None) -> list[str]:
    """The text lines of a ``polytope_to_dict`` payload."""
    lines = [f"dim {p['dim']}"]
    if not p["vertices"]:
        return lines + ["empty polytope" + (f" ({note})" if note else "")]
    lines += ["vertex " + _word(v) for v in p["vertices"]]
    return lines + [f"facet {_word(f['a'])} <= {f['b']}" for f in p.get("facets", ())]


def _verdict(rep: ConnectivityReport) -> dict:
    return {
        "verdict": rep.verdict,
        "scc_count": rep.scc_count,
        "cycle_lattice_rank": rep.cycle_lattice_rank,
        "lattice_index": rep.lattice_index,
        "cone_full": rep.cone_full,
    }


def _anisotropy_dict(an: Anisotropy) -> dict:
    return {
        "inradius2": str(an.inradius_sq),
        "circumradius2": str(an.circumradius_sq),
        "isotropic": an.isotropic,
    }


def _parse_rationals(text: str) -> list[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def cmd_polytope(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    if len(analysis.sccs) == 1:
        poly = analysis.polytope
        if args.svg:
            svg = polytope_svg(poly)  # before the file is opened, which would empty it
            with open(args.svg, "w") as fh:
                fh.write(svg)
        payload = polytope_to_dict(poly)
        return _emit(args, payload, _polytope_text(payload, note="no cycles, so no trajectory exists"))
    if args.svg:
        return _fail("--svg requires a strongly connected quotient graph")
    g, comps = analysis.graph, analysis.sccs
    payload = {
        "dim": g.dim,
        "components": [
            {
                "scc": comp_id,
                "vertices": [g.vertices[v] for v in comps[comp_id]],
                "polytope": polytope_to_dict(poly),
            }
            for comp_id, poly in analysis.components
        ],
    }
    lines = [f"dim {g.dim}", f"components {len(payload['components'])}"]
    for comp in payload["components"]:
        lines.append(f"component {comp['scc']} vertices {','.join(comp['vertices'])}")
        lines += _polytope_text(comp["polytope"])
    return _emit(args, payload, lines)


def cmd_norm(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    rep = analysis.report
    if rep.verdict != VERDICT_STRONG:
        sys.stderr.write("\n".join(_lines(_verdict(rep))) + "\n")
        return _fail(f"graph is {rep.verdict}, not {VERDICT_STRONG}", 3)
    x = tuple(args.x)
    value = gauge_norm(analysis.polytope, x)
    payload: dict = {"norm": str(value)}
    if args.oracle:
        oracle = gamma_norm_oracle(analysis.graph, x, args.n, patch_budget=budgets.patch)
        payload["n"] = args.n
        payload["oracle"] = str(oracle)
        payload["gap"] = str(abs(oracle - value))
    return _emit(args, payload, [payload["norm"], *_lines(payload, "norm", "n")])


def cmd_cycles(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    g, cycles = analysis.graph, analysis.cycles  # all of them, or the budget error
    if args.json:
        return _emit(args, {"count": len(cycles), "cycles": cycles}, [])
    # Routes are streamed rather than joined for _emit: on sq_4x4's 29,440
    # cycles the text is megabytes, and one string of it would raise peak RSS.
    names = g.vertices
    steps = [f" -e{eid}-> {names[e.target]}" for eid, e in enumerate(g.edges)]
    sys.stdout.writelines(names[g.edges[c[0]].source] + "".join(map(steps.__getitem__, c))
                          + "\n" for c in cycles)
    print(f"cycles {len(cycles)}")
    return 0


def cmd_simulate(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    g = analysis.graph
    weights = _parse_rationals(args.weights)
    if args.cycles:
        indices = []
        for tok in filter(str.strip, args.cycles.split(",")):
            try:
                indices.append(int(tok))
            except ValueError:
                return _fail(f"cycle indices must be integers, got {tok.strip()!r}")
    else:
        indices = list(range(len(weights)))
    if len(indices) != len(weights):
        return _fail("number of weights must match number of cycle indices")
    stream = analysis.cycle_stream()  # read as far as the largest index, or counted to the end
    cycles = list(islice(stream, max(indices, default=-1) + 1))
    if not all(0 <= i < len(cycles) for i in indices):
        count = len(cycles) + sum(1 for _ in stream)
        return _fail(f"cycle index out of range (graph has {count} cycles)")
    plan = build_plan(g, [(cycles[i], w) for i, w in zip(indices, weights)])
    steps, displacement = schedule_totals(g, plan, args.kmax, budget=budgets.prefix)
    if not steps:
        return _fail("scheduled prefix is empty; increase --kmax")
    target = [Fraction(0)] * g.dim
    for cycle, weight in plan.cycles:
        disp = path_displacement(g, cycle)
        for j in range(g.dim):
            target[j] += weight * Fraction(disp[j], len(cycle))
    vel = tuple(Fraction(c, steps) for c in displacement)
    gap = max(abs(a - b) for a, b in zip(vel, target))
    payload = {
        "target": [str(c) for c in target],
        "steps": steps,
        "velocity": [str(c) for c in vel],
        "target_gap": str(gap),
        "polytope_gap": "0",  # each stage is a closed walk, a mixture of simple cycles, so vel is in P
    }
    return _emit(args, payload, _lines(payload))


def cmd_realize(args: argparse.Namespace, budgets: Budgets) -> int:
    with open(args.polytope, "r") as fh:
        poly = polytope_from_json(fh.read())
    sys.stdout.write(serialize_dgf(realize(poly, budget=budgets.realize)))
    return 0


def cmd_check_morphism(args: argparse.Namespace, budgets: Budgets) -> int:
    src = _analyze(args.source, budgets)
    dst = _analyze(args.dest, budgets)
    p_src = src.polytope
    if contains_polytope(dst.polytope, p_src):
        print("inconclusive")
    else:
        print("morphism impossible")
    return 0


def cmd_anisotropy(args: argparse.Namespace, budgets: Budgets) -> int:
    poly = _analyze(args.graph, budgets).polytope
    metric = None
    if args.metric:
        metric = [_parse_rationals(row) for row in args.metric.split(";") if row.strip()]
    payload = _anisotropy_dict(anisotropy(poly, metric))
    return _emit(args, payload, _lines(payload))


def cmd_report(args: argparse.Namespace, budgets: Budgets) -> int:
    """Structure, cycles and velocities; for a strongly connected quotient
    also its polytope and anisotropy (or why that is unavailable), else the
    number of components with a velocity polytope."""
    analysis = _analyze(args.graph, budgets)
    g = analysis.graph
    # read before the report, so that the cycle budget runs out first
    count, velocities = analysis.cycle_pairs.total(), analysis.velocities
    payload: dict = {
        "vertices": list(g.vertices),
        "edges": len(g.edges),
        **_verdict(analysis.report),
        "cycles": count,
        "basic_velocities": [[str(c) for c in v] for v in velocities],
    }
    lines = [f"vertices {len(g.vertices)}", *_lines(payload, "vertices", "basic_velocities")]
    lines += ["velocity " + _word(v) for v in payload["basic_velocities"]]
    if analysis.report.scc_count == 1:
        poly = analysis.polytope
        payload["polytope"] = polytope_to_dict(poly)
        lines += _polytope_text(payload["polytope"], note="no cycles")
        try:
            payload["anisotropy"] = _anisotropy_dict(anisotropy(poly))
            lines += _lines(payload["anisotropy"])
        except ValueError as exc:
            payload["anisotropy"] = None
            lines.append(f"anisotropy unavailable ({exc})")
    else:
        lines.append(f"components {len(analysis.components)}")
    return _emit(args, payload, lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="velo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="velocity polytope of a graph (per SCC if disconnected)")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", metavar="PATH", help="write a 2-d SVG rendering")

    p = sub.add_parser("norm", help="growth norm of an integer direction")
    p.add_argument("graph")
    p.add_argument("x", nargs="+", type=int)
    p.add_argument("--n", type=int, default=8, help="oracle sample index")
    p.add_argument("--oracle", action="store_true", help="also run the BFS oracle")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cycles", help="list canonical simple cycles")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="schedule a weighted cycle mixture and measure it")
    p.add_argument("graph")
    p.add_argument("--weights", required=True, help="comma-separated positive rationals summing to 1")
    p.add_argument("--cycles", help="comma-separated indices into the sorted canonical cycles "
                   "(default: the first ones); only cycles up to the largest index are listed")
    p.add_argument("--kmax", type=int, default=16)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("realize", help="emit a graph realizing a polytope JSON file")
    p.add_argument("polytope")

    p = sub.add_parser("check-morphism", help="velocity obstruction to graph morphisms")
    p.add_argument("source")
    p.add_argument("dest")

    p = sub.add_parser("anisotropy", help="in/circumradius of the velocity polytope")
    p.add_argument("graph")
    p.add_argument("--metric", help="rational matrix, rows separated by ';', entries by ','")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="one-shot structural and geometric report")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    global _parser
    budget_env = os.environ.get("VELO_BUDGET")
    if budget_env is not None:
        try:
            value = int(budget_env)
            if value < 1:
                raise ValueError
        except ValueError:
            return _fail(f"VELO_BUDGET must be a positive integer, got {budget_env!r}")
        budgets = Budgets(max_cycles=value, patch=value, prefix=value, realize=value, oracle=value)
    else:
        budgets = Budgets()
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is an input error: 1, not argparse's 2
        return 1 if exc.code else 0
    try:
        # looked up on each call, so that a rebound cmd_* function (a tracer,
        # a test) runs although the parser is built once
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, budgets)
    except BudgetError as exc:
        return _fail(str(exc), 2)
    except NotStronglyConnectedError as exc:
        return _fail(str(exc), 3)
    except (VeloError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
