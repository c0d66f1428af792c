from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    DIAMOND_DGF,
    HONEYCOMB_DGF,
    random_graph,
    random_strongly_connected_graph,
    subdivide,
)
from oracles import (
    anisotropy_brute,
    brute_cycles,
    brute_sccs,
    facets_brute,
    lattice_rank_and_index_brute,
    member_caratheodory,
)
from velo import (
    DisplacementGraph,
    Edge,
    convex_hull,
    enumerate_cycles,
    parse_dgf,
    path_displacement,
    polytope_svg,
    polytope_to_dict,
    realize,
    serialize_dgf,
    velocity_polytope,
)
from velo.cli import main
from velo.geometry import polytope_distance_inf
from velo.graph import contract_chains

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import nets  # noqa: E402  (closed-form crystal nets, no velo inside)

F = Fraction

HEX_TEXT = """\
dim 2
vertex -1/2 -1/2
vertex -1/2 0
vertex 0 -1/2
vertex 0 1/2
vertex 1/2 0
vertex 1/2 1/2
facet -2 0 <= 1
facet -2 2 <= 1
facet 0 -2 <= 1
facet 0 2 <= 1
facet 2 -2 <= 1
facet 2 0 <= 1
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# polytope


def test_polytope_text(fixture_files, capsys):
    code, out, _ = run_cli(["polytope", fixture_files["honeycomb"]], capsys)
    assert code == 0
    assert out == HEX_TEXT


def test_polytope_json_parses_back(fixture_files, capsys):
    code, out, _ = run_cli(["polytope", fixture_files["honeycomb"], "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    g = parse_dgf(Path(fixture_files["honeycomb"]).read_text())
    expected = polytope_to_dict(velocity_polytope(g))
    assert payload == expected


def test_polytope_no_cycles(tmp_path, capsys):
    path = tmp_path / "bare.dgf"
    path.write_text("dim 2\nvertex A\n")
    code, out, _ = run_cli(["polytope", str(path)], capsys)
    assert code == 0
    assert "empty polytope" in out


def test_polytope_components(tmp_path, capsys):
    path = tmp_path / "two.dgf"
    path.write_text("dim 1\nvertex A\nvertex B\nedge A A 1\nedge A B 0\nedge B B -1\n")
    code, out, _ = run_cli(["polytope", str(path)], capsys)
    assert code == 0
    assert "components 2" in out
    assert "component 0 vertices A" in out
    assert "component 1 vertices B" in out
    code, out, _ = run_cli(["polytope", str(path), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["scc"] for c in payload["components"]] == [0, 1]
    assert payload["components"][0]["polytope"]["vertices"] == [["1"]]
    assert payload["components"][1]["polytope"]["vertices"] == [["-1"]]


def _polytope_brute(dim, velocities):
    """The polytope --json dict of the hull of the velocities, from tests/oracles.py:
    the sorted ones outside the hull of the others, and their brute-force facets."""
    vertices = [v for i, v in enumerate(velocities)
                if not member_caratheodory(v, velocities[:i] + velocities[i + 1:])]
    out = {"dim": dim, "vertices": [[str(c) for c in v] for v in vertices]}
    facets = facets_brute(vertices) if vertices else None
    if facets is not None:
        out["facets"] = [{"a": list(map(str, a)), "b": str(b)} for a, b in facets]
    return out


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_polytope_json_matches_the_oracles(tmp_path, capsys, seed):
    # the whole payload, per component on a split quotient, against
    # tests/oracles.py with no velo code in the reference
    g = random_graph(random.Random(seed), max_vertices=5)
    path = tmp_path / "g.dgf"
    path.write_text(serialize_dgf(g))
    code, out, err = run_cli(["polytope", str(path), "--json"], capsys)
    assert (code, err) == (0, "")
    sccs = brute_sccs(g)
    velocities = [set() for _ in sccs]  # per component: a cycle stays inside one
    for cycle in brute_cycles(g):
        disp = map(sum, zip(*(g.edges[e].displacement for e in cycle)))
        i = next(i for i, comp in enumerate(sccs) if g.edges[cycle[0]].source in comp)
        velocities[i].add(tuple(F(x, len(cycle)) for x in disp))
    if len(sccs) == 1:
        assert json.loads(out) == _polytope_brute(g.dim, sorted(velocities[0]))
        return
    assert json.loads(out) == {"dim": g.dim, "components": [
        {"scc": i, "vertices": [g.vertices[v] for v in comp],
         "polytope": _polytope_brute(g.dim, sorted(found))}
        for i, (comp, found) in enumerate(zip(sccs, velocities)) if found
    ]}


def test_polytope_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.dgf"
    path.write_text("dim 1\nvertex A\nedge A C 0\n")
    code, _, err = run_cli(["polytope", str(path)], capsys)
    assert code == 1
    assert "line 3" in err


def test_polytope_missing_file(capsys):
    code, _, err = run_cli(["polytope", "/nonexistent.dgf"], capsys)
    assert code == 1
    assert err


# ---------------------------------------------------------------------------
# norm


def test_norm_honeycomb(fixture_files, capsys):
    code, out, _ = run_cli(["norm", fixture_files["honeycomb"], "1", "0"], capsys)
    assert code == 0
    assert out == "2\n"


def test_norm_square_diagonal_with_oracle(fixture_files, capsys):
    code, out, _ = run_cli(
        ["norm", fixture_files["square"], "1", "1", "--oracle", "--n", "8"], capsys
    )
    assert code == 0
    assert out == "2\noracle 2\ngap 0\n"


def test_norm_rejects_quotient_only(fixture_files, capsys):
    code, _, err = run_cli(["norm", fixture_files["pm2"], "1"], capsys)
    assert code == 3
    assert "QuotientConnectedOnly" in err


# ---------------------------------------------------------------------------
# cycles


def test_cycles_listing(fixture_files, capsys):
    code, out, _ = run_cli(["cycles", fixture_files["honeycomb"]], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "A -e0-> B -e3-> A"
    assert lines[-1] == "cycles 9"
    assert len(lines) == 10


def test_cycles_json(fixture_files, capsys):
    code, out, _ = run_cli(["cycles", fixture_files["pm2"], "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 2, "cycles": [[0], [1]]}


def test_cycles_json_is_the_indented_dump(fixture_files, chain_files, tmp_path, capsys):
    acyclic = tmp_path / "acyclic.dgf"
    acyclic.write_text("dim 1\nvertex A\nvertex B\nedge A B 1\nedge A B -1\n")
    for path in (*fixture_files.values(), *chain_files.values(), str(acyclic)):
        cycles = list(enumerate_cycles(parse_dgf(Path(path).read_text())))
        payload = {"count": len(cycles), "cycles": cycles}
        assert run_cli(["cycles", path, "--json"], capsys) == (
            0, json.dumps(payload, indent=2) + "\n", ""
        )


def _cycle_route(g: DisplacementGraph, cycle: tuple[int, ...]) -> str:
    """One route, rendered part by part from a cycle's edge ids: the reference for `cycles`."""
    parts = [g.vertices[g.edges[cycle[0]].source]]
    for eid in cycle:
        parts.append(f"-e{eid}->")
        parts.append(g.vertices[g.edges[eid].target])
    return " ".join(parts)


def test_cycles_text_matches_the_reference_routes(fixture_files, chain_files, tmp_path, capsys):
    rng = random.Random(5)
    paths = [*fixture_files.values(), *chain_files.values()]
    for i in range(40):
        g = random_graph(rng, max_vertices=6, max_edges=12, max_disp=9)
        if i % 2:
            g = subdivide(g, {eid: rng.randint(1, 3) for eid in range(0, len(g.edges), 3)})
        paths.append(tmp_path / f"random{i}.dgf")
        paths[-1].write_text(serialize_dgf(g))
    for path in paths:
        g = parse_dgf(Path(path).read_text())
        cycles = enumerate_cycles(g)
        routes = "".join(_cycle_route(g, c) + "\n" for c in cycles)
        assert run_cli(["cycles", str(path)], capsys) == (0, routes + f"cycles {len(cycles)}\n", "")


def test_cycles_over_the_budget_print_nothing(fixture_files, chain_files, capsys, monkeypatch):
    # the routes go out only once the whole list exists, so none of the first 5 does
    monkeypatch.setenv("VELO_BUDGET", "5")
    for path in (fixture_files["honeycomb"], chain_files["hc"]):  # the chain folds away
        for argv in (["cycles", path], ["cycles", path, "--json"]):
            assert run_cli(argv, capsys) == (
                2, "", "error: cycle budget of 5 exceeded while exploring component {A,B}\n"
            )


# ---------------------------------------------------------------------------
# simulate


def test_simulate_honeycomb(fixture_files, capsys):
    args = [
        "simulate", fixture_files["honeycomb"],
        "--weights", "1/2,1/2", "--cycles", "2,3", "--kmax", "40",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "target 1/4 1/4" in out
    assert "velocity 1/4 1/4" in out
    assert "target_gap 0" in out
    assert "polytope_gap 0" in out


def test_simulate_weight_mismatch(fixture_files, capsys):
    args = ["simulate", fixture_files["honeycomb"], "--weights", "1/2,1/2", "--cycles", "1"]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "match" in err


@pytest.mark.parametrize("index", ["4", "-1"])
def test_simulate_cycle_index_out_of_range(fixture_files, index, capsys):
    # a negative index must not count from the end of the cycle list
    args = ["simulate", fixture_files["square"], "--weights", "1", "--cycles", index, "--kmax", "4"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err == "error: cycle index out of range (graph has 4 cycles)\n"


@pytest.mark.parametrize("indices, bad", [("0,x", "x"), ("1, 2.5", "2.5"), ("-", "-")])
def test_simulate_rejects_cycle_indices_that_are_not_integers(fixture_files, indices, bad, capsys):
    args = ["simulate", fixture_files["honeycomb"], "--weights", "1/2,1/2", "--cycles", indices]
    assert run_cli(args, capsys) == (
        1, "", f"error: cycle indices must be integers, got {bad!r}\n"
    )


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--weights", "1/0,1"),
    ("anisotropy", "--metric", "1/0,0;0,1"),
])
def test_zero_denominator_in_a_rational_is_an_error_line(fixture_files, command, flag, value, capsys):
    args = [command, fixture_files["honeycomb"], flag, value]
    assert run_cli(args, capsys) == (1, "", "error: zero denominator in '1/0'\n")


@pytest.mark.parametrize("command, rest, message", [
    ("norm", ["1", "2", "3"], "vector has 3 entries, expected 2"),
    ("anisotropy", ["--metric", "1,0"], "metric must be a 2x2 matrix"),
])
def test_input_of_the_wrong_shape_is_an_error_line(fixture_files, command, rest, message, capsys):
    args = [command, fixture_files["honeycomb"], *rest]
    assert run_cli(args, capsys) == (1, "", f"error: {message}\n")


def test_simulate_counts_past_its_indices_under_the_budget(fixture_files, capsys, monkeypatch):
    # index 20 is out of range, and counting the 9 cycles to say so meets the budget of 5
    monkeypatch.setenv("VELO_BUDGET", "5")
    args = ["simulate", fixture_files["honeycomb"], "--weights", "1/2,1/2", "--cycles", "0,20"]
    assert run_cli(args, capsys) == (
        2, "", "error: cycle budget of 5 exceeded while exploring component {A,B}\n"
    )


def test_simulate_reads_only_the_cycles_it_needs(tmp_path, capsys, monkeypatch):
    import velo.invariants

    # sq 8x8 has far more simple cycles than the cycle budget
    path = tmp_path / "sq_8x8.dgf"
    path.write_text(nets.dgf_text(nets.supercell(nets.BASE["sq"], (8, 8))))
    original, read = velo.invariants.core_cycles, []

    def counting(*args, **kwargs):
        for cycle in original(*args, **kwargs):
            read.append(cycle)
            yield cycle

    monkeypatch.setattr(velo.invariants, "core_cycles", counting)
    code, out, err = run_cli(
        ["simulate", str(path), "--weights", "1/2,1/2", "--kmax", "64"], capsys
    )
    assert (code, err, len(read)) == (0, "", 2)
    g = parse_dgf(path.read_text())  # nothing folds, so the core ids are the graph's own
    velocities = [[F(d, len(c)) for d in path_displacement(g, c)] for c in read]
    mean = [(a + b) / 2 for a, b in zip(*velocities)]
    assert out.startswith("target " + " ".join(map(str, mean)) + "\n")


FLAT_DGF = "dim 2\nvertex A\nvertex B\nedge A A 1 0\nedge A B 0 0\nedge B A -1 0\n"


def test_simulate_builds_no_polytope(tmp_path, capsys, monkeypatch):
    import velo.geometry
    import velo.invariants

    original_hull, hulls = velo.geometry.convex_hull, []
    original_oracle, queries = velo.invariants.max_ratio_cycle, []

    def counting_hull(points, **kwargs):
        hulls.append(points)
        return original_hull(points, **kwargs)

    def counting_oracle(*args):
        queries.append(args)
        return original_oracle(*args)

    monkeypatch.setattr(velo.geometry, "convex_hull", counting_hull)
    monkeypatch.setattr(velo.invariants, "max_ratio_cycle", counting_oracle)
    path = tmp_path / "dia.dgf"
    path.write_text(DIAMOND_DGF)
    assert run_cli(["simulate", str(path), "--weights", "2/3,1/3", "--kmax", "24"], capsys) == (
        0,
        "target -1/6 0 0\nsteps 4452\nvelocity -115/742 0 0\ntarget_gap 13/1113\npolytope_gap 0\n",
        "",
    )
    # the walks base cells and a flat P: polytope_gap is proved, not measured
    texts = {name: nets.dgf_text(base) for name, base in nets.BASE.items()}
    for name, text in {**texts, "flat": FLAT_DGF}.items():
        (tmp_path / f"{name}.dgf").write_text(text)
        args = ["simulate", str(tmp_path / f"{name}.dgf"), "--weights", "1/2,1/2", "--kmax", "16"]
        code, out, err = run_cli(args, capsys)
        assert (code, err, out.endswith("\npolytope_gap 0\n")) == (0, "", True), name
    assert (hulls, queries) == ([], [])  # no support query and no hull
    poly = velocity_polytope(parse_dgf(DIAMOND_DGF))
    assert queries  # the spy is live: P itself is built from support queries
    assert velo.geometry.polytope_distance_inf(poly, (1, 0, 0)) == F(1, 2)
    assert len(hulls) == 1 and len(hulls[0]) == 8 * len(poly.vertices)  # outside P it is built


@pytest.mark.parametrize("budget", [2, 3, 5, 8, 12, 20, 40])
def test_simulate_reads_no_oracle_budget(tmp_path, budget, capsys, monkeypatch):
    # simulate reads the cycle and scheduled-edge budgets only: below 40 a
    # support query on dia 2x2x1 exceeds the oracle budget, as polytope shows
    path = tmp_path / "dia_2x2x1.dgf"
    path.write_text(nets.dgf_text(nets.supercell(nets.BASE["dia"], (2, 2, 1))))
    monkeypatch.setenv("VELO_BUDGET", str(budget))
    args = ["simulate", str(path), "--weights", "1", "--kmax", "2"]
    if budget < 4:  # the walk has 4 edges
        expected = (2, "", f"error: scheduled prefix would exceed the budget of {budget} edges at stage 2\n")
    else:
        expected = (0, "target 0 0 0\nsteps 4\nvelocity 0 0 0\ntarget_gap 0\npolytope_gap 0\n", "")
    assert run_cli(args, capsys) == expected
    code, _, err = run_cli(["polytope", str(path)], capsys)
    assert (code, err.startswith(f"error: oracle budget of {budget} ")) == (
        (0, False) if budget == 40 else (2, True)
    )


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), k_max=st.integers(1, 12))
@example(seed=11, k_max=6)  # P is a segment in the plane
@example(seed=16, k_max=6)
def test_simulate_velocity_lies_in_the_polytope(tmp_path, capsys, seed, k_max):
    # the polytope_gap 0 that simulate prints without building P, checked against P
    rng = random.Random(seed)
    g = random_strongly_connected_graph(rng)
    count = len(enumerate_cycles(g))
    picks = rng.sample(range(count), rng.randint(1, min(3, count)))
    parts = [rng.randint(1, 6) for _ in picks]
    path = tmp_path / "g.dgf"
    path.write_text(serialize_dgf(g))
    code, out, err = run_cli([
        "simulate", str(path), "--kmax", str(k_max),
        "--weights", ",".join(str(F(p, sum(parts))) for p in parts),
        "--cycles", ",".join(map(str, picks)),
    ], capsys)
    assume(err != "error: scheduled prefix is empty; increase --kmax\n")
    assert (code, err) == (0, "")
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    velocity = tuple(F(c) for c in printed["velocity"].split())
    assert printed["polytope_gap"] == "0"
    assert polytope_distance_inf(velocity_polytope(g), velocity) == 0


def test_simulate_on_a_split_quotient_is_a_verdict_failure(tmp_path, capsys):
    # A and B each carry a loop, and nothing leads back from B to A
    path = tmp_path / "split.dgf"
    path.write_text("dim 1\nvertex A\nvertex B\nedge A A 1\nedge A B 0\nedge B B -1\n")
    assert run_cli(["simulate", str(path), "--weights", "1/2,1/2", "--kmax", "8"], capsys) == (
        3, "", "error: trajectory plans require a strongly connected quotient\n"
    )


# ---------------------------------------------------------------------------
# realize


def test_realize_hexagon_json(fixture_files, tmp_path, capsys):
    code, out, _ = run_cli(["polytope", fixture_files["honeycomb"], "--json"], capsys)
    assert code == 0
    poly_path = tmp_path / "hex.json"
    poly_path.write_text(out)
    code, dgf, _ = run_cli(["realize", str(poly_path)], capsys)
    assert code == 0
    g = parse_dgf(dgf)
    assert len(g.vertices) == 2
    assert len(g.edges) == 7
    assert velocity_polytope(g).vertices == velocity_polytope(
        parse_dgf(Path(fixture_files["honeycomb"]).read_text())
    ).vertices


@pytest.mark.parametrize("rows, hulls", [
    ('["1/2", "0"], ["0", "1/3"], ["1/12", "2/45"], ["-1/4", "-1/5"], ["1/2", "0"]', 1),
    ('["1/2", "0"], ["-1/2", "0"]', 1),
    ('["1/3", "-1/3"]', 0),
], ids=["noisy-triangle", "segment", "point"])
def test_realize_builds_at_most_one_hull(tmp_path, rows, hulls, capsys, monkeypatch):
    import velo.geometry

    built = []

    class Counting(velo.geometry._Hull):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(velo.geometry, "_Hull", Counting)
    path = tmp_path / "p.json"
    path.write_text(f'{{"dim": 2, "vertices": [{rows}]}}')
    code, out, _ = run_cli(["realize", str(path)], capsys)
    assert code == 0 and out.startswith("dim 2\n")
    assert len(built) == hulls  # the loader's hull; realize reads its vertices


def test_realize_vertex_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.json"
    path.write_text('{"dim": 2, "vertices": [["1/8", "0"], ["0", "1/9"], ["-1/5", "-1/7"]]}')
    monkeypatch.setenv("VELO_BUDGET", "2519")
    code, out, err = run_cli(["realize", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: realize vertex budget of 2519 exceeded: the ring needs lcm 2520 vertices\n"
    monkeypatch.setenv("VELO_BUDGET", "2520")
    code, out, _ = run_cli(["realize", str(path)], capsys)
    assert code == 0 and out.count("\nvertex ") == 2520


def test_realize_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["realize", str(path)], capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize("text", [
    '{"dim": 1, "vertices": [[1], [-1]]}',
    '{"dim": 1, "vertices": [[null]]}',
    '{"dim": 2, "vertices": ["12", "34"]}',
    '{"dim": 1.9, "vertices": [["1"], ["-1"]]}',
    '{"dim": true, "vertices": [["1"], ["-1"]]}',
    '[["1"], ["-1"]]',
    '{"dim": 1, "vertices": [["1/0"]]}',
])
def test_realize_rejects_polytope_json_of_the_wrong_types(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["realize", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed polytope JSON: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# check-morphism


def test_check_morphism_obstruction(fixture_files, capsys):
    code, out, _ = run_cli(
        ["check-morphism", fixture_files["square"], fixture_files["honeycomb"]], capsys
    )
    assert code == 0
    assert out == "morphism impossible\n"


def test_check_morphism_inconclusive(fixture_files, capsys):
    code, out, _ = run_cli(
        ["check-morphism", fixture_files["honeycomb"], fixture_files["square"]], capsys
    )
    assert code == 0
    assert out == "inconclusive\n"


# ---------------------------------------------------------------------------
# anisotropy


def test_anisotropy_honeycomb(fixture_files, capsys):
    code, out, _ = run_cli(["anisotropy", fixture_files["honeycomb"]], capsys)
    assert code == 0
    assert out == "inradius2 1/8\ncircumradius2 1/2\nisotropic false\n"


def test_anisotropy_metric_flag(fixture_files, capsys):
    code, out, _ = run_cli(
        ["anisotropy", fixture_files["honeycomb"], "--metric", "2,0;0,2", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "inradius2": "1/4",
        "circumradius2": "1",
        "isotropic": False,
    }


# ---------------------------------------------------------------------------
# report


def test_report_honeycomb(fixture_files, capsys):
    code, out, _ = run_cli(["report", fixture_files["honeycomb"]], capsys)
    assert code == 0
    assert "verdict StronglyConnectedPeriodic" in out
    assert "cycles 9" in out
    assert "velocity 1/2 1/2" in out
    assert "isotropic false" in out


def test_report_json(fixture_files, capsys):
    code, out, _ = run_cli(["report", fixture_files["pm2"], "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "QuotientConnectedOnly"
    assert payload["lattice_index"] == 2
    assert payload["basic_velocities"] == [["-2"], ["2"]]


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), strong=st.booleans())
def test_report_json_matches_the_oracles(tmp_path, capsys, seed, strong):
    # every field of report --json against tests/oracles.py, with no velo code
    # in the reference; each printed number is the str of its Fraction
    rng = random.Random(seed)
    g = (random_strongly_connected_graph if strong else random_graph)(rng, max_vertices=5)
    path = tmp_path / "g.dgf"
    path.write_text(serialize_dgf(g))
    code, out, err = run_cli(["report", str(path), "--json"], capsys)
    assert (code, err) == (0, "")
    _check_report(g, json.loads(out))


def _scope_graphs():
    """Every graph of two small scopes: one vertex with 1-3 loops in the plane,
    displacements in {-1, 0, 1}^2 (219 graphs), and two vertices with 1-4 edges
    on the line, displacements in {-1, 0, 1} (1,819 edge multisets)."""
    loops = [Edge(0, 0, d) for d in product((-1, 0, 1), repeat=2)]
    for k in range(1, 4):
        for edges in combinations_with_replacement(loops, k):
            yield DisplacementGraph(2, ("A",), edges)
    arcs = [Edge(s, t, (d,)) for s in range(2) for t in range(2) for d in (-1, 0, 1)]
    for k in range(1, 5):
        for edges in combinations_with_replacement(arcs, k):
            yield DisplacementGraph(1, ("A", "B"), edges)


def test_report_json_matches_the_oracles_on_every_graph_of_a_small_scope(tmp_path, capsys):
    path, count = tmp_path / "g.dgf", 0
    for g in _scope_graphs():
        path.write_text(serialize_dgf(g))
        code, out, err = run_cli(["report", str(path), "--json"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        _check_report(g, payload)
        code, out, err = run_cli(["cycles", str(path), "--json"], capsys)
        # the report's count, which _check_report holds to brute_cycles
        assert (code, err, json.loads(out)["count"]) == (0, "", payload["cycles"])
        count += 1
    assert count == 219 + 1819


def _check_report(g, payload):
    """Every field of a report --json payload against tests/oracles.py."""
    cycles = brute_cycles(g)
    disps = [tuple(map(sum, zip(*(g.edges[e].displacement for e in c)))) for c in cycles]
    velocities = sorted({tuple(F(x, len(c)) for x in d) for c, d in zip(cycles, disps)})
    rank, index = lattice_rank_and_index_brute(sorted(set(disps)), g.dim)
    facets = facets_brute(velocities) if velocities else None
    cone_full = facets is not None and all(b > 0 for _, b in facets)
    scc_count = len(brute_sccs(g))
    if scc_count > 1:
        verdict = "Disconnected"
    elif rank == g.dim and index == 1 and cone_full:
        verdict = "StronglyConnectedPeriodic"
    else:
        verdict = "QuotientConnectedOnly"
    assert (payload["cycles"], payload["scc_count"]) == (len(cycles), scc_count)
    assert payload["basic_velocities"] == [[str(c) for c in v] for v in velocities]
    assert (payload["cycle_lattice_rank"], payload["lattice_index"]) == (rank, index)
    assert (payload["cone_full"], payload["verdict"]) == (cone_full, verdict)
    if scc_count > 1:
        assert "polytope" not in payload
        return
    poly = _polytope_brute(g.dim, velocities)
    assert payload["polytope"] == poly
    anisotropy = None
    if cone_full:
        vertices = [tuple(map(F, v)) for v in poly["vertices"]]
        identity = [[F(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
        inrad, circum = anisotropy_brute(vertices, identity)
        anisotropy = {"inradius2": str(inrad), "circumradius2": str(circum),
                      "isotropic": inrad == circum}
    assert payload["anisotropy"] == anisotropy


# ---------------------------------------------------------------------------
# SVG


def test_svg_output(fixture_files, tmp_path, capsys):
    svg_path = tmp_path / "hex.svg"
    code, _, _ = run_cli(
        ["polytope", fixture_files["honeycomb"], "--svg", str(svg_path)], capsys
    )
    assert code == 0
    first = svg_path.read_text()
    run_cli(["polytope", fixture_files["honeycomb"], "--svg", str(svg_path)], capsys)
    assert svg_path.read_text() == first
    assert first.startswith("<svg ")
    assert 'viewBox="0 0 480 480"' in first
    assert "<polygon" in first
    assert first.count("<text") == 6
    assert "(1/2, 1/2)" in first


def test_svg_of_the_empty_and_the_one_point_polytope():
    with pytest.raises(ValueError, match="cannot render the empty polytope"):
        polytope_svg(convex_hull([], dim=2))
    # {0} has extent 0, drawn at the unit scale: its one vertex sits at the centre
    svg = polytope_svg(convex_hull([(F(0), F(0))]))
    assert '<circle cx="240.00" cy="240.00" r="3" fill="#000"/>' in svg
    assert "(0, 0)" in svg
    assert "<polygon" not in svg


def test_svg_rejects_non_2d(fixture_files, tmp_path, capsys):
    path = tmp_path / "x.svg"
    path.write_text("<svg>kept</svg>\n")
    code, _, err = run_cli(["polytope", fixture_files["pm2"], "--svg", str(path)], capsys)
    assert code == 1
    assert "2-d" in err
    assert path.read_text() == "<svg>kept</svg>\n"  # a failed rendering leaves the file alone


# ---------------------------------------------------------------------------
# pinned output


CROSS4_DGF = "dim 4\nvertex O\n" + "".join(
    "edge O O " + " ".join(str(s if j == i else 0) for j in range(4)) + "\n"
    for i in range(4)
    for s in (1, -1)
)


def _vecs(text):
    return [v.split() for v in text.split(";")]


DIAMOND_REPORT = {
    "vertices": ["A", "B"],
    "edges": 8,
    "verdict": "StronglyConnectedPeriodic",
    "scc_count": 1,
    "cycle_lattice_rank": 3,
    "lattice_index": 1,
    "cone_full": True,
    "cycles": 16,
    "basic_velocities": _vecs(
        "-1/2 0 0;-1/2 0 1/2;-1/2 1/2 0;0 -1/2 0;0 -1/2 1/2;0 0 -1/2;0 0 0;"
        "0 0 1/2;0 1/2 -1/2;0 1/2 0;1/2 -1/2 0;1/2 0 -1/2;1/2 0 0"
    ),
    "polytope": {
        "dim": 3,
        "vertices": _vecs(
            "-1/2 0 0;-1/2 0 1/2;-1/2 1/2 0;0 -1/2 0;0 -1/2 1/2;0 0 -1/2;"
            "0 0 1/2;0 1/2 -1/2;0 1/2 0;1/2 -1/2 0;1/2 0 -1/2;1/2 0 0"
        ),
        "facets": [
            {"a": a, "b": "1"}
            for a in _vecs(
                "-2 -2 -2;-2 -2 0;-2 0 -2;-2 0 0;0 -2 -2;0 -2 0;0 0 -2;"
                "0 0 2;0 2 0;0 2 2;2 0 0;2 0 2;2 2 0;2 2 2"
            )
        ],
    },
    "anisotropy": {"inradius2": "1/12", "circumradius2": "1/2", "isotropic": False},
}

HEX_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 480 480">
<line x1="0" y1="240.00" x2="480" y2="240.00" stroke="#999" stroke-dasharray="4 4"/>
<line x1="240.00" y1="0" x2="240.00" y2="480" stroke="#999" stroke-dasharray="4 4"/>
<polygon points="24.00,456.00 240.00,456.00 456.00,240.00 456.00,24.00 240.00,24.00 \
24.00,240.00" fill="none" stroke="#000" stroke-width="2"/>
<circle cx="24.00" cy="456.00" r="3" fill="#000"/>
<text x="30.00" y="450.00" font-size="12">(-1/2, -1/2)</text>
<circle cx="24.00" cy="240.00" r="3" fill="#000"/>
<text x="30.00" y="234.00" font-size="12">(-1/2, 0)</text>
<circle cx="240.00" cy="456.00" r="3" fill="#000"/>
<text x="246.00" y="450.00" font-size="12">(0, -1/2)</text>
<circle cx="240.00" cy="24.00" r="3" fill="#000"/>
<text x="246.00" y="18.00" font-size="12">(0, 1/2)</text>
<circle cx="456.00" cy="240.00" r="3" fill="#000"/>
<text x="462.00" y="234.00" font-size="12">(1/2, 0)</text>
<circle cx="456.00" cy="24.00" r="3" fill="#000"/>
<text x="462.00" y="18.00" font-size="12">(1/2, 1/2)</text>
</svg>
"""


def test_pinned_diamond_report_and_metric(tmp_path, capsys):
    path = tmp_path / "dia.dgf"
    path.write_text(DIAMOND_DGF)
    code, out, err = run_cli(["report", str(path), "--json"], capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(DIAMOND_REPORT, indent=2) + "\n"
    code, out, err = run_cli(["anisotropy", str(path), "--metric", "2,1,0;1,3,1;0,1,4"], capsys)
    assert (code, out, err) == (0, "inradius2 1/4\ncircumradius2 3/2\nisotropic false\n", "")


def test_pinned_cross_polytope_4d(tmp_path, capsys):
    path = tmp_path / "cross4.dgf"
    path.write_text(CROSS4_DGF)
    code, out, err = run_cli(["polytope", str(path)], capsys)
    assert (code, err) == (0, "")
    units = [" ".join(str(s if j == i else 0) for j in range(4)) for i in range(4) for s in (1, -1)]
    signs = [f"{a} {b} {c} {d}" for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)]
    assert out == "".join(
        ["dim 4\n"]
        + [f"vertex {u}\n" for u in sorted(units, key=lambda u: [int(c) for c in u.split()])]
        + [f"facet {s} <= 1\n" for s in signs]
    )


# the base cells at the largest n of the benchmark's oracle jobs
ORACLE_PINS = [
    ("sq", "64", "1 2", 3), ("sq", "64", "-2 1", 3), ("sq", "64", "0 -3", 3),
    ("hc", "64", "2 1", 4), ("hc", "64", "-1 -2", 4), ("hc", "64", "1 -1", 4),
    ("cub", "12", "1 1 0", 2), ("cub", "12", "0 -1 1", 2), ("cub", "12", "-1 2 1", 4),
    ("dia", "12", "1 1 0", 4), ("dia", "12", "-1 0 -1", 4), ("dia", "12", "1 -1 1", 4),
]


@pytest.mark.parametrize("name, n, x, norm", ORACLE_PINS)
def test_pinned_oracle_on_base_cells(tmp_path, name, n, x, norm, capsys):
    path = tmp_path / f"{name}.dgf"
    path.write_text(nets.dgf_text(nets.BASE[name]))
    assert run_cli(["norm", str(path), *x.split(), "--oracle", "--n", n], capsys) == (
        0, f"{norm}\noracle {norm}\ngap 0\n", ""
    )


def test_pinned_honeycomb_svg(fixture_files, tmp_path, capsys):
    svg_path = tmp_path / "hex.svg"
    code, out, _ = run_cli(["polytope", fixture_files["honeycomb"], "--svg", str(svg_path)], capsys)
    assert (code, out) == (0, HEX_TEXT)
    assert svg_path.read_text() == HEX_SVG


def test_anisotropy_of_a_polytope_with_many_vertices(tmp_path, capsys):
    # The integer points on the spheres x^2+y^2+z^2 = 9 and 10: 54 points,
    # 48 of them vertices.  Their hull carries its facets like any other.
    shell = [
        (x, y, z)
        for x in range(-3, 4) for y in range(-3, 4) for z in range(-3, 4)
        if x * x + y * y + z * z in (9, 10)
    ]
    assert len(shell) == 54
    poly_path = tmp_path / "shell.json"
    poly_path.write_text(json.dumps({"dim": 3, "vertices": [[str(c) for c in p] for p in shell]}))
    code, dgf, _ = run_cli(["realize", str(poly_path)], capsys)
    assert code == 0
    graph_path = tmp_path / "shell.dgf"
    graph_path.write_text(dgf)
    code, out, err = run_cli(["anisotropy", str(graph_path)], capsys)
    assert (code, out, err) == (0, "inradius2 8\ncircumradius2 10\nisotropic false\n", "")


# ---------------------------------------------------------------------------
# budgets and stability


def test_velo_budget_env(fixture_files, capsys, monkeypatch):
    monkeypatch.setenv("VELO_BUDGET", "5")
    code, _, err = run_cli(["cycles", fixture_files["honeycomb"]], capsys)
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("VELO_BUDGET", "banana")
    code, _, err = run_cli(["cycles", fixture_files["honeycomb"]], capsys)
    assert code == 1


# two disjoint honeycomb cells: two components of 9 simple cycles each
TWO_HONEYCOMBS_DGF = HONEYCOMB_DGF + """\
vertex C
vertex D
edge C D 0 0
edge C D 0 1
edge C D -1 0
edge D C 0 0
edge D C 0 -1
edge D C 1 0
"""


@pytest.fixture()
def two_honeycombs(tmp_path):
    path = tmp_path / "two_honeycombs.dgf"
    path.write_text(TWO_HONEYCOMBS_DGF)
    return str(path)


@pytest.mark.parametrize("command", [["polytope"], ["report"], ["report", "--json"]])
def test_cycle_budget_counts_the_whole_graph(two_honeycombs, command, capsys, monkeypatch):
    argv = [command[0], two_honeycombs, *command[1:]]
    unbudgeted = run_cli(argv, capsys)
    monkeypatch.setenv("VELO_BUDGET", "12")  # each component fits, the 18 cycles do not
    code, out, err = run_cli(argv, capsys)
    if command == ["polytope"]:  # the support oracle lists no cycle
        assert (code, out, err) == unbudgeted and code == 0
        return
    assert code == 2
    assert out == ""
    # the stream runs in edge-id order, so it runs out in the second component
    assert err == "error: cycle budget of 12 exceeded while exploring component {C,D}\n"


@pytest.fixture()
def realized_ring(tmp_path):
    """A realized polytope with denominators 8, 9, 5 and 7: a ring of 2,520 vertices."""
    p = convex_hull([(F(1, 8), F(0)), (F(0), F(1, 9)), (F(-1, 5), F(-1, 7)), (F(1, 3), F(1, 3))])
    path = tmp_path / "ring.dgf"
    path.write_text(serialize_dgf(realize(p)))
    return str(path)


def test_one_enumeration_per_graph_argument(
    fixture_files, two_honeycombs, realized_ring, capsys, monkeypatch
):
    import velo.cycles

    original = velo.cycles.core_cycles
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "velo" and getattr(module, "core_cycles", None) is original:
            monkeypatch.setattr(module, "core_cycles", counting)

    hc = fixture_files["honeycomb"]
    # expected calls and exit code; only the commands whose output needs every
    # cycle (cycles, report, simulate) enumerate, and the others take their
    # polytopes and verdicts from the support oracle
    cases = [
        (["cycles", hc], 1, 0),
        (["polytope", hc], 0, 0),
        (["report", hc], 1, 0),
        (["report", hc, "--json"], 1, 0),
        (["norm", hc, "1", "0"], 0, 0),
        (["simulate", hc, "--weights", "1/2,1/2", "--kmax", "8"], 1, 0),
        (["anisotropy", hc], 0, 0),
        (["check-morphism", hc, fixture_files["square"]], 0, 0),
        (["cycles", two_honeycombs], 1, 0),
        (["polytope", two_honeycombs], 0, 0),
        (["report", two_honeycombs], 1, 0),
        (["report", two_honeycombs, "--json"], 1, 0),
        (["norm", two_honeycombs, "1", "0"], 0, 3),
        (["simulate", two_honeycombs, "--weights", "1", "--kmax", "8"], 1, 3),
        (["anisotropy", two_honeycombs], 0, 3),
        (["check-morphism", two_honeycombs, hc], 0, 3),
        (["polytope", realized_ring, "--json"], 0, 0),
        (["cycles", realized_ring], 1, 0),
    ]
    for args, expected_calls, expected_code in cases:
        calls.clear()
        code, _, _ = run_cli(args, capsys)
        assert (len(calls), code) == (expected_calls, expected_code), args
        assert len({id(g) for g in calls}) == len(calls), args  # one per graph argument
        # each stream runs on its graph's fold, which has no chain left
        assert all(contract_chains(g) is None for g in calls), args


def test_sq_4x4_cycles_and_report_survive_a_gauge_move(tmp_path, capsys):
    # the benchmark's largest enumeration; a gauge move keeps every cycle's displacement
    net, total = nets.supercell(nets.BASE["sq"], (4, 4)), nets.CYCLE_COUNTS["sq", (4, 4)]
    rng = random.Random(44)
    potential = [[rng.randint(-3, 3) for _ in range(net.dim)] for _ in net.vertices]
    outputs = []
    for name, moved in [("plain", net), ("gauge", nets.gauge_moved(net, potential))]:
        path = tmp_path / f"{name}.dgf"
        path.write_text(nets.dgf_text(moved))
        cycles, report, report_json = [
            run_cli([*args, str(path)], capsys) for args in (["cycles"], ["report"], ["report", "--json"])
        ]
        assert (cycles[0], cycles[1].splitlines()[-1]) == (0, f"cycles {total}")
        assert (report_json[0], json.loads(report_json[1])["cycles"]) == (0, total)
        assert f"\ncycles {total}\n" in report[1]
        outputs.append((cycles, report, report_json))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text, listed, total", [
    (HONEYCOMB_DGF, 6, 9),
    (nets.dgf_text(nets.supercell(nets.BASE["sq"], (2, 2))), 28, 48),
], ids=["hc", "sq_2x2"])
def test_report_lists_one_cycle_of_each_mirrored_pair(text, listed, total, tmp_path, capsys,
                                                      monkeypatch):
    import velo.cycles

    original, read = velo.cycles.core_cycles, []

    def counting(*args, **kwargs):
        for cycle in original(*args, **kwargs):
            read.append(cycle)
            yield cycle

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "velo" and getattr(module, "core_cycles", None) is original:
            monkeypatch.setattr(module, "core_cycles", counting)
    path = tmp_path / "net.dgf"
    path.write_text(text)
    code, out, _ = run_cli(["report", str(path)], capsys)
    assert (code, len(read)) == (0, listed)
    assert f"\ncycles {total}\n" in out
    read.clear()
    code, out, _ = run_cli(["cycles", str(path)], capsys)
    assert (code, len(read), out.splitlines()[-1]) == (0, total, f"cycles {total}")


# ---------------------------------------------------------------------------
# graphs with chain vertices (in-degree 1, out-degree 1), which the analysis
# folds into single edges; the expected bytes are those of the unfolded analysis

# the honeycomb cell with A -> B cut by M and one B -> A edge replaced by B -> N -> P -> A
CHAIN_HONEYCOMB_DGF = """\
dim 2
vertex A
vertex B
vertex M
vertex N
vertex P
edge A M 0 0
edge M B 0 1
edge A B -1 0
edge A B 0 0
edge B N 0 0
edge N P 0 -1
edge P A 0 0
edge B A 1 0
edge B A 0 0
"""

# two components joined by the chain B -> P -> C, with a chain on each and a
# dangling chain D -> Q -> R
CHAINED_COMPONENTS_DGF = """\
dim 2
vertex A
vertex B
vertex M
vertex P
vertex C
vertex N
vertex D
vertex Q
vertex R
edge A M 0 1
edge M B 0 0
edge B A 1 0
edge B A 0 -1
edge A B -1 0
edge B P 0 0
edge P C 2 0
edge C N 1 0
edge N D 0 1
edge D C -1 0
edge D C 0 -1
edge C C 0 1
edge D Q 0 0
edge Q R 0 0
"""


@pytest.fixture()
def chain_files(tmp_path):
    paths = {}
    for name, text in (("hc", CHAIN_HONEYCOMB_DGF), ("comps", CHAINED_COMPONENTS_DGF)):
        paths[name] = tmp_path / f"{name}.dgf"
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


def test_pinned_cycles_on_chains(chain_files, capsys):
    routes = [
        "A -e0-> M -e1-> B -e4-> N -e5-> P -e6-> A",
        "A -e0-> M -e1-> B -e7-> A",
        "A -e0-> M -e1-> B -e8-> A",
        "A -e2-> B -e4-> N -e5-> P -e6-> A",
        "A -e2-> B -e7-> A",
        "A -e2-> B -e8-> A",
        "A -e3-> B -e4-> N -e5-> P -e6-> A",
        "A -e3-> B -e7-> A",
        "A -e3-> B -e8-> A",
    ]
    assert run_cli(["cycles", chain_files["hc"]], capsys) == (
        0, "\n".join(routes) + "\ncycles 9\n", ""
    )
    cycles = [[0, 1, 4, 5, 6], [0, 1, 7], [0, 1, 8], [2, 4, 5, 6], [2, 7], [2, 8],
              [3, 4, 5, 6], [3, 7], [3, 8]]
    assert run_cli(["cycles", chain_files["hc"], "--json"], capsys) == (
        0, json.dumps({"count": 9, "cycles": cycles}, indent=2) + "\n", ""
    )
    routes = [
        "A -e0-> M -e1-> B -e2-> A",
        "A -e0-> M -e1-> B -e3-> A",
        "B -e2-> A -e4-> B",
        "B -e3-> A -e4-> B",
        "C -e7-> N -e8-> D -e9-> C",
        "C -e7-> N -e8-> D -e10-> C",
        "C -e11-> C",
    ]
    assert run_cli(["cycles", chain_files["comps"]], capsys) == (
        0, "\n".join(routes) + "\ncycles 7\n", ""
    )


def test_pinned_simulate_on_chains(chain_files, capsys):
    args = ["simulate", chain_files["hc"], "--weights", "1/3,2/3", "--cycles", "0,3", "--kmax", "6"]
    out = "target -1/6 -1/6\nsteps 24\nvelocity -1/4 -1/4\ntarget_gap 1/12\npolytope_gap 0\n"
    assert run_cli(args, capsys) == (0, out, "")


def test_pinned_components_on_chains(chain_files, capsys):
    out = """\
dim 2
components 2
component 0 vertices A,B,M
dim 2
vertex -1/2 -1/2
vertex 1/3 1/3
component 2 vertices C,N,D
dim 2
vertex 0 1/3
vertex 0 1
vertex 1/3 0
facet -3 -3 <= -1
facet -1 0 <= 0
facet 3 1 <= 1
"""
    assert run_cli(["polytope", chain_files["comps"]], capsys) == (0, out, "")
    code, out, _ = run_cli(["report", chain_files["comps"]], capsys)
    assert code == 0
    assert "\nscc_count 5\n" in out and "\ncycles 7\n" in out


@pytest.mark.parametrize("command", ["cycles", "polytope", "report"])
def test_cycle_budget_on_chains_names_graph_vertices(chain_files, command, capsys, monkeypatch):
    # the budget trips at the same count as without folding: 7 cycles fit, 6 do not
    monkeypatch.setenv("VELO_BUDGET", "7")
    fits = run_cli([command, chain_files["comps"]], capsys)
    assert fits[0] == 0
    monkeypatch.setenv("VELO_BUDGET", "6")
    code, out, err = run_cli([command, chain_files["comps"]], capsys)
    if command == "polytope":  # the support oracle lists no cycle
        assert (code, out, err) == fits
        return
    assert (code, out) == (2, "")
    # the 7th cycle in edge-id order is the self-loop C -e11-> C, and N is folded
    # into the edge C -> D, so the component is named by C and D
    assert err == "error: cycle budget of 6 exceeded while exploring component {C,D}\n"


@pytest.mark.parametrize("command", [["polytope"], ["norm", "1", "0"], ["anisotropy"]])
def test_oracle_budget(chain_files, command, capsys, monkeypatch):
    # one support query on this graph raises distances four times, the others at most three
    argv = [command[0], chain_files["hc"], *command[1:]]
    monkeypatch.setenv("VELO_BUDGET", "4")
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setenv("VELO_BUDGET", "3")
    assert run_cli(argv, capsys) == (2, "", (
        "error: oracle budget of 3 relaxations exceeded: "
        "a support query made 4 in component {A,B}\n"
    ))


def test_oracle_relaxes_arcs_in_edge_id_order(tmp_path, capsys, monkeypatch):
    # the out-edges of v1 (e0, e2) and of v0 (e1, e3) interleave; taken vertex by
    # vertex instead of by id, the first support query makes 3 relaxations, not 2
    path = tmp_path / "interleaved.dgf"
    path.write_text("dim 1\nvertex v0\nvertex v1\n"
                    "edge v1 v0 -2\nedge v0 v0 0\nedge v1 v1 2\nedge v0 v1 0\n")
    monkeypatch.setenv("VELO_BUDGET", "1")
    assert run_cli(["polytope", str(path)], capsys) == (2, "", (
        "error: oracle budget of 1 relaxations exceeded: "
        "a support query made 2 in component {v0,v1}\n"
    ))


def test_report_counts_cycles_before_asking_the_oracle(chain_files, capsys, monkeypatch):
    monkeypatch.setenv("VELO_BUDGET", "3")  # both the 9 cycles and a support query exceed it
    assert run_cli(["report", chain_files["hc"]], capsys) == (
        2, "", "error: cycle budget of 3 exceeded while exploring component {A,B}\n"
    )


@pytest.mark.parametrize("command", [
    ["simulate", "--weights", "1/2,1/2", "--kmax", "24"], ["norm", "1", "0", "--oracle"]
])
def test_one_scc_search_per_graph(fixture_files, tmp_path, command, capsys, monkeypatch):
    import velo.graph

    # a strongly connected realized ring of 12 vertices, which folds to a core of 2
    ring = realize(convex_hull([(F(1, 4), F(0)), (F(0), F(1, 3)), (F(-1, 6), F(-1, 4))]))
    (tmp_path / "ring.dgf").write_text(serialize_dgf(ring))
    original, calls = velo.graph._tarjan, []

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(velo.graph, "_tarjan", counting)
    for path in (fixture_files["honeycomb"], str(tmp_path / "ring.dgf")):
        calls.clear()
        code, _, _ = run_cli([command[0], path, *command[1:]], capsys)
        # the plan's and the BFS oracle's connectivity checks reuse the analysis's
        # components, which one Tarjan run finds on the 2 vertices of the folded core
        assert (code, calls) == (0, [2])


@pytest.mark.parametrize("command", ["polytope", "report"])
def test_one_fold_per_chained_graph(chain_files, realized_ring, command, capsys, monkeypatch):
    import velo.graph

    original, calls = velo.graph.contract_chains, []

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(velo.graph, "contract_chains", counting)
    for path in (chain_files["hc"], chain_files["comps"], realized_ring):
        calls.clear()
        # the fold marks its core as folded, so nothing runs the fold on the core again
        assert (run_cli([command, path], capsys)[0], len(calls)) == (0, 1), path


GRAPH = object()  # stands for the honeycomb fixture's path


@pytest.mark.parametrize("argv, code", [
    pytest.param([], 1, id="no-command"),
    pytest.param(["polytope"], 1, id="polytope"),  # missing file argument
    pytest.param(["bogus"], 1, id="bogus"),
    pytest.param(["norm", GRAPH, "a"], 1, id="norm-non-integer"),
    pytest.param(["simulate", GRAPH], 1, id="simulate-no-weights"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["report", "--help"], 0, id="report-help"),
])
def test_usage_error_exit_code(fixture_files, argv, code, capsys):
    # a usage error is an input error; the structure is checked, not argparse's
    # wording, which differs between Python versions
    argv = [fixture_files["honeycomb"] if a is GRAPH else a for a in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code:
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: velo")
        assert re.match(r"^velo( [a-z-]+)?: error: ", lines[-1]), lines[-1]
    else:
        assert err == "" and out.startswith("usage: velo")


def test_outputs_stable_across_runs(fixture_files, capsys):
    commands = [
        ["polytope", fixture_files["honeycomb"]],
        ["polytope", fixture_files["square"], "--json"],
        ["polytope", fixture_files["pm2"]],
        ["cycles", fixture_files["honeycomb"]],
        ["cycles", fixture_files["square"], "--json"],
        ["report", fixture_files["honeycomb"]],
        ["report", fixture_files["square"]],
        ["report", fixture_files["pm2"]],
        ["anisotropy", fixture_files["square"], "--json"],
        ["norm", fixture_files["honeycomb"], "1", "1", "--oracle", "--n", "4"],
        ["simulate", fixture_files["honeycomb"], "--weights", "1/3,2/3", "--kmax", "12"],
    ]
    for args in commands:
        first = run_cli(args, capsys)
        second = run_cli(args, capsys)
        assert first == second
        assert first[0] == 0
