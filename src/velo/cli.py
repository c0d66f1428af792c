"""Command-line front end.

Subcommands cover the whole pipeline: polytope, norm, cycles, simulate,
realize, check-morphism, anisotropy, report.  All numeric output is exact
rational text; exit codes are 0 (success), 1 (input error), 2 (budget
exceeded), 3 (connectivity verdict failure).  The VELO_BUDGET environment
variable overrides every default resource budget at once.
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
from .errors import BudgetError, DgfError, NotStronglyConnectedError, VeloError
from .geometry import (
    Anisotropy,
    Polytope,
    anisotropy,
    contains_polytope,
    format_rational,
    gauge_norm,
    parse_rational,
    polytope_distance_inf,
    polytope_from_json,
    polytope_to_dict,
    polytope_to_json,
)
from .graph import (
    DEFAULT_PATCH_BUDGET,
    DisplacementGraph,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_graph(path: str) -> DisplacementGraph:
    with open(path, "rb") as fh:
        return parse_dgf(fh.read())


def _analyze(path: str, budgets: Budgets) -> GraphAnalysis:
    return GraphAnalysis(
        _load_graph(path), max_cycles=budgets.max_cycles, oracle_budget=budgets.oracle
    )


def _polytope_text(p: Polytope, note: str | None = None) -> str:
    lines = [f"dim {p.dim}"]
    if p.is_empty:
        lines.append("empty polytope" + (f" ({note})" if note else ""))
    else:
        for v in p.vertices:
            lines.append("vertex " + " ".join(format_rational(c) for c in v))
        if p.facets is not None:
            for f in p.facets:
                lines.append(
                    "facet " + " ".join(str(c) for c in f.normal) + f" <= {f.offset}"
                )
    return "\n".join(lines) + "\n"


def _verdict_lines(rep: ConnectivityReport) -> list[str]:
    return [
        f"verdict {rep.verdict}",
        f"scc_count {rep.scc_count}",
        f"cycle_lattice_rank {rep.cycle_lattice_rank}",
        f"lattice_index {rep.lattice_index if rep.lattice_index is not None else '-'}",
        f"cone_full {'true' if rep.cone_full else 'false'}",
    ]


def _anisotropy_dict(an: Anisotropy) -> dict:
    return {
        "inradius2": format_rational(an.inradius_sq),
        "circumradius2": format_rational(an.circumradius_sq),
        "isotropic": an.isotropic,
    }


def _anisotropy_lines(an: Anisotropy) -> list[str]:
    return [
        f"inradius2 {format_rational(an.inradius_sq)}",
        f"circumradius2 {format_rational(an.circumradius_sq)}",
        f"isotropic {'true' if an.isotropic else 'false'}",
    ]


def _report_payload(analysis: GraphAnalysis) -> dict:
    """Everything `report` prints, for both renderers.

    A strongly connected quotient adds its polytope and its anisotropy (or the
    ValueError saying why that is unavailable); otherwise the number of
    components with a velocity polytope is given.
    """
    payload: dict = {  # the cycles first, so that the cycle budget is the first to run out
        "graph": analysis.graph,
        "cycles": analysis.cycle_count,
        "velocities": analysis.velocities,
        "report": analysis.report,
    }
    if analysis.report.scc_count == 1:
        payload["polytope"] = poly = analysis.polytope
        try:
            payload["anisotropy"] = anisotropy(poly)
        except ValueError as exc:
            payload["anisotropy"] = exc
    else:
        payload["components"] = len(analysis.components)
    return payload


def _report_text(payload: dict) -> str:
    g = payload["graph"]
    lines = [
        f"vertices {len(g.vertices)}",
        f"edges {len(g.edges)}",
        *_verdict_lines(payload["report"]),
        f"cycles {payload['cycles']}",
    ]
    for v in payload["velocities"]:
        lines.append("velocity " + " ".join(format_rational(c) for c in v))
    if "polytope" in payload:
        lines.append(_polytope_text(payload["polytope"], note="no cycles").rstrip("\n"))
        an = payload["anisotropy"]
        if isinstance(an, Anisotropy):
            lines.extend(_anisotropy_lines(an))
        else:
            lines.append(f"anisotropy unavailable ({an})")
    else:
        lines.append(f"components {payload['components']}")
    return "\n".join(lines) + "\n"


def _report_json(payload: dict) -> str:
    g, rep = payload["graph"], payload["report"]
    out: dict = {
        "vertices": list(g.vertices),
        "edges": len(g.edges),
        "verdict": rep.verdict,
        "scc_count": rep.scc_count,
        "cycle_lattice_rank": rep.cycle_lattice_rank,
        "lattice_index": rep.lattice_index,
        "cone_full": rep.cone_full,
        "cycles": payload["cycles"],
        "basic_velocities": [[format_rational(c) for c in v] for v in payload["velocities"]],
    }
    if "polytope" in payload:
        out["polytope"] = polytope_to_dict(payload["polytope"])
        an = payload["anisotropy"]
        out["anisotropy"] = _anisotropy_dict(an) if isinstance(an, Anisotropy) else None
    return json.dumps(out, indent=2) + "\n"


def _parse_rationals(text: str) -> list[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _parse_metric(text: str) -> list[list[Fraction]]:
    return [_parse_rationals(row) for row in text.split(";") if row.strip()]


def cmd_polytope(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    if len(analysis.sccs) == 1:
        poly = analysis.polytope
        if args.svg:
            svg = polytope_svg(poly)  # before the file is opened, which would empty it
            with open(args.svg, "w") as fh:
                fh.write(svg)
        if args.json:
            sys.stdout.write(polytope_to_json(poly))
        else:
            sys.stdout.write(_polytope_text(poly, note="no cycles, so no trajectory exists"))
        return 0
    if args.svg:
        return _fail("--svg requires a strongly connected quotient graph")
    g, comps = analysis.graph, analysis.sccs
    if args.json:
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
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"dim {g.dim}", f"components {len(analysis.components)}"]
        for comp_id, poly in analysis.components:
            names = ",".join(g.vertices[v] for v in comps[comp_id])
            lines.append(f"component {comp_id} vertices {names}")
            lines.append(_polytope_text(poly).rstrip("\n"))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_norm(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    rep = analysis.report
    if rep.verdict != VERDICT_STRONG:
        sys.stderr.write("\n".join(_verdict_lines(rep)) + "\n")
        print(f"error: graph is {rep.verdict}, not {VERDICT_STRONG}", file=sys.stderr)
        return 3
    x = tuple(args.x)
    value = gauge_norm(analysis.polytope, [Fraction(c) for c in x])
    norm_text = "inf" if value is None else format_rational(value)
    payload: dict = {"norm": norm_text}
    lines = [norm_text]
    if args.oracle:
        oracle = gamma_norm_oracle(analysis.graph, x, args.n, patch_budget=budgets.patch)
        payload["n"] = args.n
        payload["oracle"] = format_rational(oracle)
        lines.append(f"oracle {format_rational(oracle)}")
        if value is not None:
            gap = abs(oracle - value)
            payload["gap"] = format_rational(gap)
            lines.append(f"gap {format_rational(gap)}")
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_cycles(args: argparse.Namespace, budgets: Budgets) -> int:
    analysis = _analyze(args.graph, budgets)
    g, cycles = analysis.graph, analysis.cycles  # all of them, or the budget error
    if args.json:
        payload = {"count": len(cycles), "cycles": cycles}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
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
        disp = path_displacement(g, cycle.edges)
        for j in range(g.dim):
            target[j] += weight * Fraction(disp[j], cycle.length)
    vel = tuple(Fraction(c, steps) for c in displacement)
    gap = max(abs(a - b) for a, b in zip(vel, target))
    dist = polytope_distance_inf(analysis.polytope, vel)
    payload = {
        "target": [format_rational(c) for c in target],
        "steps": steps,
        "velocity": [format_rational(c) for c in vel],
        "target_gap": format_rational(gap),
        "polytope_gap": format_rational(dist),
    }
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print("target " + " ".join(payload["target"]))
        print(f"steps {steps}")
        print("velocity " + " ".join(payload["velocity"]))
        print(f"target_gap {payload['target_gap']}")
        print(f"polytope_gap {payload['polytope_gap']}")
    return 0


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
    metric = _parse_metric(args.metric) if args.metric else None
    an = anisotropy(poly, metric)
    if args.json:
        sys.stdout.write(json.dumps(_anisotropy_dict(an), indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_anisotropy_lines(an)) + "\n")
    return 0


def cmd_report(args: argparse.Namespace, budgets: Budgets) -> int:
    payload = _report_payload(_analyze(args.graph, budgets))
    sys.stdout.write(_report_json(payload) if args.json else _report_text(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="velo", description=__doc__)
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
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        # looked up on each call, so that a rebound cmd_* function (a tracer,
        # a test) runs although the parser is built once
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, budgets)
    except DgfError as exc:
        return _fail(str(exc))
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotStronglyConnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VeloError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
