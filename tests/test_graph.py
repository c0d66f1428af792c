from __future__ import annotations

import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CUBIC_DGF,
    DIAMOND_DGF,
    HONEYCOMB_DGF,
    SQUARE_DGF,
    random_gauge,
    random_graph,
    random_walk,
)
from oracles import bfs_window, reference_dgf
from velo import (
    BudgetError,
    DgfError,
    DisplacementGraph,
    Edge,
    NotStronglyConnectedError,
    UnreachableError,
    bfs_distance,
    convex_hull,
    gamma_norm_oracle,
    gauge_transform,
    parse_dgf,
    realize,
    serialize_dgf,
    strongly_connected_components,
)
from velo.cycles import enumerate_cycles, path_displacement
from velo.graph import contract_chains


# ---------------------------------------------------------------------------
# parsing / serialization


def test_parse_honeycomb(honeycomb):
    assert len(honeycomb.vertices) == 2
    assert len(honeycomb.edges) == 6
    assert honeycomb.dim == 2
    assert honeycomb.edges[0] == Edge(0, 1, (0, 0))
    assert honeycomb.edges[5] == Edge(1, 0, (1, 0))


def test_parse_minimal_loop():
    g = parse_dgf("dim 1\nvertex A\nedge A A 0")
    assert g.vertices == ("A",)
    assert g.edges == (Edge(0, 0, (0,)),)


def test_parse_undeclared_vertex_reports_line():
    with pytest.raises(DgfError) as exc:
        parse_dgf("dim 1\nvertex A\nedge A C 0\n")
    assert exc.value.line == 3
    assert "C" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "vertex A\ndim 1\n",              # dim must come first
        "dim 0\nvertex A\n",              # bad dimension
        "dim 1\nvertex A\nvertex A\n",    # duplicate vertex
        "dim 2\nvertex A\nedge A A 0\n",  # displacement arity mismatch
        "dim 1\nvertex A\nedge A A x\n",  # non-integer displacement
        "dim 1\nvertex 9bad\n",           # invalid name
        "dim 1\nfrobnicate A\n",          # unknown directive
        "dim 1\n",                        # no vertices
        "",                               # no dim
        "edge A A 0\n",                   # edge before dim
        "dim 1\nvertex A B\n",            # two names after 'vertex'
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(DgfError):
        parse_dgf(text)


def test_serialize_canonical_form():
    g = parse_dgf("dim 1\nvertex A\nedge A A 0")
    assert serialize_dgf(g) == "dim 1\nvertex A\nedge A A 0\n"


def test_serialize_honeycomb_line_count(honeycomb):
    lines = serialize_dgf(honeycomb).strip().split("\n")
    assert len(lines) == 9  # dim line + 2 vertices + 6 edges
    assert lines[0] == "dim 2"


def test_parse_normalizes_comments_and_whitespace(honeycomb):
    noisy = "# header\n\n  dim 2 # trailing\nvertex A\n\tvertex B # x\n" + "\n".join(
        line for line in HONEYCOMB_DGF.splitlines() if line.startswith("edge")
    )
    assert parse_dgf(noisy) == honeycomb
    assert serialize_dgf(parse_dgf(noisy)) == serialize_dgf(honeycomb)


def test_roundtrip_random_graphs():
    rng = random.Random(100)
    for _ in range(50):
        g = random_graph(rng)
        assert parse_dgf(serialize_dgf(g)) == g


def test_parse_accepts_bytes(honeycomb):
    assert parse_dgf(HONEYCOMB_DGF.encode()) == honeycomb


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_every_str_splitlines_boundary_ends_a_line(end):
    # a form feed and the rest end a line as LF does, and count in line numbers
    assert parse_dgf(f"dim 1\nvertex a{end}edge a a 1\n").edges == (Edge(0, 0, (1,)),)
    with pytest.raises(DgfError, match="^line 3: undeclared vertex 'b'$"):
        parse_dgf(f"dim 1\nvertex a{end}edge a b 1\n".encode())


# Entries and names for random DGF text: one integer has several spellings,
# and a few entries and names are not valid at all.
_ENTRIES = ("0", "1", "+1", "01", "-1", "-0", "+0", "2", "-02", "1_0")
_BAD_ENTRIES = ("x", "1.5", "--1", "0x1")
_NAMES = ("A", "B", "C", "v_1", "w2")
_BAD_NAMES = ("9bad", "caf\u00e9", "a-b", "a.b")
_BLANKS = (" ", "  ", "\t", " \t ", "\u00a0")


@st.composite
def dgf_texts(draw):
    """DGF text with comments, comment-only, blank and whitespace-only lines,
    tabs and no-break spaces around and between tokens, LF and CRLF line ends, and now and then a line in error (wrong
    arity, a non-integer entry, an undeclared, duplicate or invalid vertex, a
    misplaced or malformed directive); as str or as UTF-8 bytes."""
    def rare() -> bool:
        return draw(st.integers(0, 11)) == 0

    dim = draw(st.integers(1, 3))
    declared: list[str] = []
    rows = [] if rare() else [["dim", str(dim)]]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("vertex", "edge", "edge", "edge", "comment", "blank")))
        if rare():
            rows.append(draw(st.sampled_from((
                ["edge", "A", "A"] + [draw(st.sampled_from(_BAD_ENTRIES))] * dim,
                ["edge", "A", "Z"] + ["0"] * dim, ["edge", "A", "A"] + ["1"] * (dim + 1),
                ["vertex", draw(st.sampled_from(_BAD_NAMES + _NAMES))], ["vertex", "A", "B"],
                ["vertex"], ["dim", "2"], ["dim", "x"], ["dim"], ["dim", "0"], ["node", "A"]))))
        elif kind == "vertex" or (kind == "edge" and not declared):
            name = next(name for name in _NAMES + tuple(f"v{i}" for i in range(15))
                        if name not in declared)
            declared.append(name)
            rows.append(["vertex", name])
        elif kind == "edge":
            ends = [draw(st.sampled_from(declared)) for _ in range(2)]
            rows.append(["edge"] + ends + [draw(st.sampled_from(_ENTRIES)) for _ in range(dim)])
        elif kind == "comment":
            rows.append(["#", "note", "#", "edge"])
        else:
            rows.append([])
    lines = []
    for row in rows:
        pad = [draw(st.sampled_from(("",) + _BLANKS)) for _ in range(2)]
        sep = draw(st.sampled_from(_BLANKS))
        note = draw(st.sampled_from(("", "", " # tail", "# edge A A 1")))
        end = draw(st.sampled_from(("\n", "\r\n")))
        lines.append(pad[0] + sep.join(row) + pad[1] + note + end)
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text.encode() if draw(st.booleans()) else text


@given(dgf_texts())
@example("dim 1\n \t \nvertex A\r\nedge A A +1 # c\nedge A A 01\r\n")
@example("dim 2\nvertex A\nedge A A 1\nedge A A 1 1\nedge A B 1 2\n")
@example("dim 1\r\nvertex A\r\n\t\r\nvertex A\r\n")
@example(b"# header\ndim x\n")
@example("  \ndim 0\n")
@example("dim 1 2\n")
@example("dim 1\nvertex A\nedge A A 1\nedge A 1\n")
def test_parse_dgf_matches_the_reference_parser(text):
    expected = reference_dgf(text)
    if expected[0] == "graph":
        g = parse_dgf(text)
        assert ("graph", g.dim, g.vertices, list(g.edges)) == expected
        assert DisplacementGraph(g.dim, g.vertices, g.edges) == g  # parse_dgf skips its checks
        return
    _, message, line = expected
    with pytest.raises(DgfError) as exc:
        parse_dgf(text)
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")
    assert exc.value.line == line


def test_graph_validation():
    with pytest.raises(ValueError):
        DisplacementGraph(1, (), ())
    with pytest.raises(ValueError):
        DisplacementGraph(1, ("A",), (Edge(0, 1, (0,)),))
    with pytest.raises(ValueError):
        DisplacementGraph(2, ("A",), (Edge(0, 0, (0,)),))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        DisplacementGraph(0, ("A",), ())
    with pytest.raises(ValueError, match="vertex names must be unique"):
        DisplacementGraph(1, ("A", "A"), ())


@pytest.mark.parametrize("name", ["a b", "9x", "", "x-y", "é", "A\n"])
def test_graph_takes_only_names_the_parser_takes(name):
    # serialize_dgf would write a vertex line that parse_dgf rejects
    with pytest.raises(ValueError, match=re.escape(f"invalid vertex name {name!r}")):
        DisplacementGraph(1, ("A", name), (Edge(0, 1, (1,)), Edge(1, 0, (0,))))
    with pytest.raises(DgfError, match="vertex"):
        parse_dgf(f"dim 1\nvertex A\nvertex {name}\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_graph_builders_leave_the_callers_gc_state(enabled):
    ring = convex_hull([(Fraction(1, 4),), (Fraction(-1, 6),)])  # a ring of 12
    chained = realize(ring)
    builds = [
        (lambda: parse_dgf(SQUARE_DGF), None),
        (lambda: parse_dgf("dim 1\nvertex A\nedge A B 0\n"), DgfError),
        (lambda: contract_chains(chained), None),
        (lambda: realize(ring), None),
        (lambda: realize(ring, budget=11), BudgetError),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for build, error in builds:
            if error is None:
                assert build() is not None
            else:
                with pytest.raises(error):
                    build()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("bad, message", [
    (Edge(-1, 0, (0, 0)), "references an invalid vertex index"),
    (Edge(0, 2, (0, 0)), "references an invalid vertex index"),
    (Edge(1, 0, (0,)), "displacement has 1 entries, expected 2"),
    (Edge(1, 0, (0, 0, 0)), "displacement has 3 entries, expected 2"),
])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_graph_validation_names_the_first_bad_edge(bad, message, at):
    edges = [Edge(0, 1, (1, 0)), Edge(1, 0, (0, 1)), Edge(1, 1, (0, 0))]
    edges.insert(at, bad)
    edges.append(Edge(0, 5, (0,)))  # a later bad edge is not the one named
    with pytest.raises(ValueError) as exc:
        DisplacementGraph(2, ("A", "B"), tuple(edges))
    assert str(exc.value) == f"edge {at} {message}"


# ---------------------------------------------------------------------------
# strongly connected components


def test_scc_honeycomb(honeycomb):
    assert strongly_connected_components(honeycomb) == ((0, 1),)


def test_scc_isolated_vertices():
    g = DisplacementGraph(1, ("A", "B"), ())
    assert strongly_connected_components(g) == ((0,), (1,))


def test_scc_one_way_path():
    g = DisplacementGraph(1, ("A", "B"), (Edge(0, 1, (0,)),))
    assert strongly_connected_components(g) == ((0,), (1,))


# ---------------------------------------------------------------------------
# gauge transformations


def test_gauge_identity(honeycomb):
    zero = [(0, 0)] * 2
    assert gauge_transform(honeycomb, zero) == honeycomb


def test_gauge_honeycomb_shift(honeycomb):
    moved = gauge_transform(honeycomb, [(1, 0), (0, 0)])
    for before, after in zip(honeycomb.edges, moved.edges):
        if before.source == 0:  # A -> B gains (1, 0)
            assert after.displacement == (before.displacement[0] + 1, before.displacement[1])
        else:  # B -> A loses (1, 0)
            assert after.displacement == (before.displacement[0] - 1, before.displacement[1])


def test_gauge_self_loop_unchanged():
    g = parse_dgf("dim 1\nvertex A\nedge A A 5")
    assert gauge_transform(g, [(17,)]) == g


def test_gauge_errors(honeycomb):
    with pytest.raises(ValueError):
        gauge_transform(honeycomb, [(0, 0)])  # missing vertex B
    with pytest.raises(ValueError):
        gauge_transform(honeycomb, [(0,), (0,)])  # wrong dimension


def test_gauge_covariance_closed_walks():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        gauge = random_gauge(g, rng)
        moved = gauge_transform(g, gauge)
        for c in enumerate_cycles(g):
            assert path_displacement(moved, c) == path_displacement(g, c)


def test_gauge_open_path_shift_formula():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng)
        gauge = random_gauge(g, rng)
        moved = gauge_transform(g, gauge)
        try:
            walk = random_walk(g, rng, rng.randint(1, 12))
        except ValueError:  # hit a vertex without outgoing edges
            continue
        before = path_displacement(g, walk)
        after = path_displacement(moved, walk)
        src = g.edges[walk[0]].source
        dst = g.edges[walk[-1]].target
        expected = tuple(b + gs - gt for b, gs, gt in zip(before, gauge[src], gauge[dst]))
        assert after == expected


# ---------------------------------------------------------------------------
# windowed BFS


@pytest.mark.parametrize("dgf, size", [
    (HONEYCOMB_DGF, 2 * 9),
    ("dim 1\nvertex A\nvertex B\nedge A B 0", 2 * 3),
], ids=["honeycomb", "dim1_pair"])
def test_bfs_window_budget(dgf, size):
    g = parse_dgf(dgf)
    source, target = (0, (0,) * g.dim), (1, (0,) * g.dim)
    assert bfs_distance(g, 1, source, target, budget=size) == 1
    message = f"patch would contain {size} nodes, exceeding the budget of {size - 1}"
    with pytest.raises(BudgetError) as exc:
        bfs_distance(g, 1, source, target, budget=size - 1)
    assert str(exc.value) == message


def test_unroll_chain_edges():
    g = parse_dgf("dim 1\nvertex A\nedge A A 1")
    assert bfs_distance(g, 2, (0, (-2,)), (0, (2,))) == 4
    # the edge out of x=2 leaves the window
    assert [bfs_distance(g, 2, (0, (2,)), (0, (x,))) for x in range(-2, 2)] == [None] * 4


def test_bfs_rejects_radius_zero(square):
    with pytest.raises(ValueError, match="radius must be >= 1"):
        bfs_distance(square, 0, (0, (0, 0)), (0, (0, 0)))


def test_bfs_same_node(honeycomb):
    assert bfs_distance(honeycomb, 2, (0, (0, 0)), (0, (0, 0))) == 0


def test_bfs_square_diagonal(square):
    assert bfs_distance(square, 8, (0, (0, 0)), (0, (3, 3))) == 6


def test_bfs_honeycomb_direct_edge(honeycomb):
    assert bfs_distance(honeycomb, 2, (0, (0, 0)), (1, (0, 0))) == 1


def test_bfs_endpoint_outside(honeycomb):
    origin = (0, (0, 0))
    # past the radius, a vertex out of range, too few or too many coordinates
    for outside in ((0, (5, 0)), (2, (0, 0)), (-1, (0, 0)), (0, (0,)), (0, (0, 0, 0))):
        for source, target in ((origin, outside), (outside, origin)):
            with pytest.raises(ValueError, match="outside the patch"):
                bfs_distance(honeycomb, 1, source, target)


def test_bfs_unreachable_in_window():
    g = parse_dgf("dim 1\nvertex A\nedge A A 1")  # forward-only chain
    assert bfs_distance(g, 3, (0, (0,)), (0, (-1,))) is None


def test_bfs_triangle_inequality(square):
    rng = random.Random(5)
    nodes = [(0, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(6)]
    for a in nodes:
        for b in nodes:
            for c in nodes:
                ab = bfs_distance(square, 4, a, b)
                bc = bfs_distance(square, 4, b, c)
                ac = bfs_distance(square, 4, a, c)
                if ab is not None and bc is not None and ac is not None:
                    assert ac <= ab + bc
            assert (bfs_distance(square, 4, a, b) == 0) == (a == b)


@st.composite
def windows(draw):
    """A graph with at most 4 vertices and 8 edges in d = 1..3, a window radius of
    1..6 (1..3 in d = 3), and two nodes of that window.

    Displacements reach 6, so some edges leave every window of a small radius.
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    radius = draw(st.integers(1, 6 if dim < 3 else 3))
    vertex = st.integers(0, n - 1)
    edge = st.builds(Edge, vertex, vertex, st.tuples(*[st.integers(-6, 6)] * dim))
    edges = tuple(draw(st.lists(edge, max_size=8)))
    g = DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), edges)
    node = st.tuples(vertex, st.tuples(*[st.integers(-radius, radius)] * dim))
    return g, radius, draw(node), draw(node)


def _loops(*disps):
    """One vertex with a loop per displacement."""
    return DisplacementGraph(len(disps[0]), ("A",), tuple(Edge(0, 0, d) for d in disps))


def _pair(there, back):
    """An edge A -> B and an edge B -> A."""
    return DisplacementGraph(len(there), ("A", "B"), (Edge(0, 1, there), Edge(1, 0, back)))


def _net(*edges):
    """Vertices 0..m in d = 1, one edge per (source, target, displacement)."""
    n = 1 + max(max(s, t) for s, t, _ in edges)
    return DisplacementGraph(1, tuple(f"v{i}" for i in range(n)),
                             tuple(Edge(s, t, (d,)) for s, t, d in edges))


# The search expands the smaller frontier, the source's on a tie; where the
# source below has two moves into the window, the target's side runs second.
@given(windows())
@example((_loops((1,)), 3, (0, (0,)), (0, (-1,))))  # unreachable
@example((_loops((4,), (-3,)), 2, (0, (-2,)), (0, (-1,))))  # a move of exactly 2 * radius
@example((_pair((5, 0), (-1, 1)), 2, (0, (0, 0)), (1, (0, 0))))  # A -> B leaves every window
# the target's only in-move comes from outside the window: the backward side empties first
@example((_net((0, 0, 1), (0, 0, -1), (0, 1, 3), (1, 0, 0)), 2, (0, (0,)), (1, (0,))))
# the sides meet at v1, which is neither endpoint's vertex
@example((_net((0, 0, 1), (0, 1, 1), (1, 2, 0), (2, 0, -1)), 2, (0, (0,)), (2, (1,))))
@example((_pair((1, 0), (0, 1)), 1, (0, (0, 0)), (1, (1, 0))))  # one edge apart
# the backward side takes the v1 -> v0 edge of displacement 4 = 2 * radius, from 2 to -2
@example((_net((0, 1, 0), (1, 0, 4), (0, 0, -1), (0, 0, 1)), 2, (0, (-2,)), (0, (2,))))
def test_bfs_matches_tuple_bfs(case):
    g, radius, source, target = case
    assert bfs_distance(g, radius, source, target) == bfs_window(g, radius, source, target)


@st.composite
def mirrored_windows(draw):
    """A graph with at most 3 vertices in d = 1..2 whose edges come each with its
    reverse, a window radius of 1..6, a source within half the radius of the
    centre and a target on the source's vertex.

    Such pairs take the one-sided search of ``bfs_distance``, and a target far
    enough out runs past its bound and falls back to the two-sided search.
    """
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    arc = st.tuples(vertex, vertex, st.tuples(*[st.integers(-3, 3)] * dim))
    edges = tuple(e for s, t, d in draw(st.lists(arc, max_size=4))
                  for e in (Edge(s, t, d), Edge(t, s, tuple(-c for c in d))))
    g = DisplacementGraph(dim, tuple(f"v{i}" for i in range(n)), edges)
    v, half = draw(vertex), radius // 2
    source = (v, draw(st.tuples(*[st.integers(-half, half)] * dim)))
    return g, radius, source, (v, draw(st.tuples(*[st.integers(-radius, radius)] * dim)))


def _mirrored(*edges):
    """``_net`` with the reverse of each edge added."""
    return _net(*[e for s, t, d in edges for e in ((s, t, d), (t, s, -d))])


@settings(max_examples=400)
@given(mirrored_windows())
@example((_loops((1,), (-1,)), 6, (0, (0,)), (0, (3,))))  # odd: level 2 meets level 1, 3
@example((_loops((1,), (-1,)), 8, (0, (0,)), (0, (4,))))  # even: two level-2 nodes meet, 4
# each level-2 node with a partner from level 1 has one from level 2 too: 3, not 4
@example((_loops((0, 1), (0, -1), (2, 0), (-2, 0), (1, 2), (-1, -2)), 6, (0, (0, 0)), (0, (1, 0))))
# level 2 reaches (1, 2), then (1, 0), whose partner at +delta is (1, 2): 4, met through +delta alone
@example((_mirrored((0, 1, 1), (1, 1, -1)), 5, (0, (0,)), (0, (2,))))
# the bound allows one level of the three needed, then the two-sided search on a fresh window
@example((_loops((1,), (-1,)), 4, (0, (0,)), (0, (3,))))
# the bound fails at once: 2 * 2 - (-2) = 6 > 2 on the axis no edge moves along
@example((_loops((1, 0), (-1, 0)), 2, (0, (0, 2)), (0, (0, -2))))
@example((_pair((0,), (0,)), 1, (0, (0,)), (0, (1,))))  # the ball empties: unreachable
# on two vertices delta is no translation, so only the two-sided search answers: 2, not 1
@example((_mirrored((0, 0, 1), (0, 1, -1)), 1, (0, (0,)), (1, (0,))))
def test_bfs_on_mirrored_graphs_matches_tuple_bfs(case):
    g, radius, source, target = case
    assert bfs_distance(g, radius, source, target) == bfs_window(g, radius, source, target)


def test_bfs_memory_ignores_edges_that_leave_every_window():
    # padding the window for the (1000, 1000, 0) edge would take 2003 * 2003 * 3 bytes
    g = parse_dgf(
        "dim 3\nvertex A\nedge A A 1000 1000 0\n"
        "edge A A 1 0 0\nedge A A 0 1 0\nedge A A 0 0 1\nedge A A -1 -1 -1\n"
    )
    tracemalloc.start()
    try:
        dist = bfs_distance(g, 1, (0, (-1, -1, -1)), (0, (1, 1, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist == 6
    assert peak < 100_000


# ---------------------------------------------------------------------------
# growth-norm oracle


def test_oracle_zero_direction(honeycomb):
    assert gamma_norm_oracle(honeycomb, (0, 0), 3) == 0


def test_oracle_square_diagonal(square):
    assert gamma_norm_oracle(square, (1, 1), 4) == 2


def test_oracle_honeycomb_unit(honeycomb):
    assert gamma_norm_oracle(honeycomb, (1, 0), 4) == 2


def test_oracle_rejects_bad_direction_or_n(square):
    with pytest.raises(ValueError, match="direction has 3 entries, expected 2"):
        gamma_norm_oracle(square, (1, 0, 0), 4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gamma_norm_oracle(square, (1, 0), 0)


def test_oracle_requires_strong_connectivity():
    g = parse_dgf("dim 1\nvertex A\nvertex B\nedge A B 0")
    with pytest.raises(NotStronglyConnectedError):
        gamma_norm_oracle(g, (1,), 2)


def test_oracle_unreachable_direction():
    g = parse_dgf("dim 1\nvertex A\nedge A A 1")  # can only move forward
    with pytest.raises(UnreachableError):
        gamma_norm_oracle(g, (-1,), 2)


def test_oracle_window_holds_the_goal(square):
    # the fixed radius 4 * (3 + 1 + 1) holds the goal (12, 0): no radius to get wrong
    assert gamma_norm_oracle(square, (3, 0), 4) == 3


def test_oracle_holds_one_window_at_a_time():
    # radius 12 * (1 + 1 + 1) = 36, each axis padded by 1: 2 * 75**3 seen bytes;
    # a build that copies the window while it grows would peak near twice that
    g = parse_dgf(DIAMOND_DGF)
    window = 2 * 75**3
    tracemalloc.start()
    try:
        value = gamma_norm_oracle(g, (1, 1, 0), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 4
    assert peak < 1.3 * window


# the walks benchmark's largest n per base cell; the bound k * pad + |t| <= radius
# holds at the meeting level: sq 3.5n <= 4n, hc 4n <= 4n, cub 2n <= 3n, dia 3n <= 3n
@pytest.mark.parametrize("text, x, n, value", [
    (SQUARE_DGF, (2, 1), 64, 3),
    (HONEYCOMB_DGF, (2, 1), 64, 4),
    (CUBIC_DGF, (1, 1, 0), 12, 2),
    (DIAMOND_DGF, (1, 1, 0), 12, 4),
], ids=["sq", "hc", "cub", "dia"])
def test_oracle_on_base_cells_grows_one_ball(text, x, n, value, monkeypatch):
    import velo.graph

    original, made = velo.graph._one_sided, []

    def recording(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(velo.graph, "_one_sided", recording)
    assert gamma_norm_oracle(parse_dgf(text), x, n) == value
    assert made == [value * n]


def test_fallback_holds_one_window_at_a_time():
    # the bound 9 * 1 + |2 * 9 - (-9)| <= 36 allows 9 levels of the 18 needed for
    # d = 36; the two-sided search then builds its window after dropping the first
    g = parse_dgf(DIAMOND_DGF)
    window = 2 * 75**3
    tracemalloc.start()
    try:
        dist = bfs_distance(g, 36, (0, (9, 0, 0)), (0, (-9, 0, 0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist == 36
    assert peak < 1.3 * window


def test_oracle_subadditive_across_n(square, honeycomb):
    # d(v, v+(a+b)x) <= d(v, v+ax) + d(v+ax, v+(a+b)x) on one shared window
    for g, x in ((square, (1, 1)), (honeycomb, (1, 0))):
        a, b = 2, 3
        base = (0, (0,) * 2)
        mid = (0, tuple(a * c for c in x))
        end = (0, tuple((a + b) * c for c in x))
        whole = bfs_distance(g, 24, base, end)
        first = bfs_distance(g, 24, base, mid)
        second = bfs_distance(g, 24, mid, end)
        assert whole is not None and first is not None and second is not None
        assert whole <= first + second


def test_oracle_patch_budget(honeycomb):
    # radius 1 * (1 + 1 + 1) = 3: a window of 2 * 7**2 = 98 nodes
    assert gamma_norm_oracle(honeycomb, (1, 0), 1, patch_budget=98) == 2
    with pytest.raises(BudgetError) as exc:
        gamma_norm_oracle(honeycomb, (1, 0), 1, patch_budget=97)
    assert str(exc.value) == "patch would contain 98 nodes, exceeding the budget of 97"


def test_oracle_exact_rational(square):
    value = gamma_norm_oracle(square, (1, 0), 3)
    assert value == Fraction(3, 3)
    assert isinstance(value, Fraction)
