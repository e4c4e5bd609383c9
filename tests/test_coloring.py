import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    Graph,
    InvariantViolation,
    color_kdom,
    color_km1dom,
    color_pipeline,
    complete_graph,
    cycle_graph,
    edge,
    exact_rx_k,
    format_coloring,
    format_edge_list,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    induced_subgraph,
    is_k_rainbow_connected,
    parse_coloring,
    parse_edge_list,
    path_graph,
    petersen_graph,
)
from rainbowindex import coloring as coloring_module
from rainbowindex.graph import ParseError
from tests.oracles import sorted_rows
from tests.test_graph import connected_graphs, graphs_with_subsets


def check_pipeline_trace(g, k, coloring, trace):
    core = set(trace.core)
    outside = set(range(g.n)) - core
    assert coloring.color_count == len(core) - 1 + 2 * k
    assert set(coloring.colors.values()) <= set(range(1, coloring.color_count + 1))
    # tree spans the core
    tree_vertices = set()
    for u, v in trace.tree_edges:
        tree_vertices.update((u, v))
    if len(core) > 1:
        assert tree_vertices == core
    assert len(trace.tree_edges) == len(core) - 1
    for near, far in zip(trace.near_sets, trace.far_sets):
        assert not near & far
        assert near | far == outside


def check_pipeline_attachment(g, k, coloring, trace):
    # every outside vertex reaches the core inside every part by a walk of
    # at most 2 edges whose colors are distinct and within {i, k+i}
    core = set(trace.core)
    for i, part in enumerate(trace.split.parts, start=1):
        adj = sorted_rows(part)
        dom_i = set(trace.part_doms[i - 1].vertices)
        near = trace.near_sets[i - 1]
        far = trace.far_sets[i - 1]
        for v in near:
            assert any(
                w in dom_i and coloring.colors[edge(v, w)] == i for w in adj[v]
            ), f"near vertex {v} unattached in part {i}"
        for v in far:
            ok = False
            for w in adj[v]:
                if coloring.colors.get(edge(v, w)) != k + i:
                    continue
                if w in core:
                    ok = True
                    break
                if any(
                    x in dom_i and coloring.colors[edge(w, x)] == i for x in adj[w]
                ):
                    ok = True
                    break
            assert ok, f"far vertex {v} unattached in part {i}"


def test_pipeline_k5():
    g = complete_graph(5)
    coloring, trace = color_pipeline(g, 2)
    check_pipeline_trace(g, 2, coloring, trace)
    check_pipeline_attachment(g, 2, coloring, trace)
    assert is_k_rainbow_connected(g, coloring, 2).ok
    # generic instance: the whole declared palette is present on edges
    assert set(coloring.colors.values()) == set(range(1, coloring.color_count + 1))


def test_pipeline_small_complete_cores_stay_small():
    for n in (3, 4, 6, 9):
        g = complete_graph(n)
        coloring, trace = color_pipeline(g, 2)
        assert len(trace.core) <= 3
        assert coloring.color_count <= 2 + 2 * 2
        assert is_k_rainbow_connected(g, coloring, 2).ok


def test_pipeline_rejects_bad_input():
    with pytest.raises(ValueError):
        color_pipeline(Graph.build(4, [(0, 1), (2, 3)]), 2)
    with pytest.raises(ValueError):
        color_pipeline(cycle_graph(5), 1)
    with pytest.raises(ValueError):
        color_pipeline(cycle_graph(5), 6)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(min_n=3, max_n=9), st.integers(2, 4))
def test_pipeline_random(g, k):
    if k > g.n:
        return
    coloring, trace = color_pipeline(g, k)
    check_pipeline_trace(g, k, coloring, trace)
    check_pipeline_attachment(g, k, coloring, trace)
    assert is_k_rainbow_connected(g, coloring, k).ok


def test_pipeline_root_builds_no_sorted_rows():
    # the pipeline colours the very graph it is given, here one read in bulk
    # from its canonical document
    g = gnp_connected_graph(60, 0.5, seed=3)
    for k in (2, 3, 4):
        root = parse_edge_list(format_edge_list(g))
        coloring, _ = color_pipeline(root, k)
        assert coloring.graph is root


# ---------------------------------------------------------------------------
# k-dominating coloring


def test_kdom_k4():
    g = complete_graph(4)
    coloring = color_kdom(g, [0, 1], 2)
    assert coloring.color_count == 3
    assert set(coloring.colors.values()) == {1, 2, 3}
    assert is_k_rainbow_connected(g, coloring, 2).ok


def test_kdom_whole_vertex_set_degenerates_to_tree():
    g = cycle_graph(6)
    coloring = color_kdom(g, range(6), 2)
    assert coloring.color_count == 5
    assert set(coloring.colors.values()) == {1, 2, 3, 4, 5}
    assert is_k_rainbow_connected(g, coloring, 2).ok


def test_kdom_refuses_invalid_set():
    c6 = cycle_graph(6)
    with pytest.raises(ValueError):
        color_kdom(c6, [0, 1, 2, 3], 2)  # vertex 5 has one inside neighbor
    with pytest.raises(ValueError, match="does not induce a connected subgraph"):
        color_kdom(c6, [0, 2, 4], 2)  # 2-dominating, no two members adjacent


def test_kdom_legs_get_position_colors():
    g = complete_graph(5)
    coloring = color_kdom(g, [0, 1, 2], 2)
    for v in (3, 4):
        feet = [w for w in (0, 1, 2)]
        assert coloring.colors[edge(v, feet[0])] == 1
        assert coloring.colors[edge(v, feet[1])] == 2
    assert is_k_rainbow_connected(g, coloring, 2).ok


def test_kdom_with_exact_core_coloring():
    g = complete_graph(6)
    dom = (0, 1, 2, 3)
    sub, originals = induced_subgraph(g, dom)
    core = exact_rx_k(sub, 2).coloring
    coloring = color_kdom(g, dom, 2, core_coloring=core)
    assert coloring.color_count == 2 + core.color_count
    assert is_k_rainbow_connected(g, coloring, 2).ok


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_n=3, max_n=9), st.integers(2, 3))
def test_kdom_random(g, k):
    if k > g.n:
        return
    cert = greedy_connected_k_dominating(g, k)
    coloring = color_kdom(g, cert, k)
    assert coloring.color_count <= len(cert.vertices) - 1 + k
    assert set(coloring.colors.values()) == set(range(1, coloring.color_count + 1))
    assert is_k_rainbow_connected(g, coloring, k).ok


# ---------------------------------------------------------------------------
# (k-1)-dominating coloring


def check_km1_trace(g, k, trace):
    outside = set(range(g.n)) - set(trace.dominating)
    pieces = (trace.isolated_outside, trace.side_even, trace.side_odd)
    for a, b in itertools.combinations(pieces, 2):
        assert not a & b
    assert set().union(*pieces) == outside
    forest_adj = {}
    for u, v in trace.forest_edges:
        forest_adj.setdefault(u, set()).add(v)
        forest_adj.setdefault(v, set()).add(u)
    for v in trace.side_even:
        assert any(w in trace.side_odd for w in forest_adj.get(v, ()))
    for v in trace.side_odd:
        assert any(w in trace.side_even for w in forest_adj.get(v, ()))
    for v in trace.isolated_outside:
        assert len(trace.legs[v]) >= k
    for v in trace.side_even | trace.side_odd:
        assert len(trace.legs[v]) >= k - 1


def replay_km1_cases(g, coloring, trace, k):
    """Re-derive the per-subset attachment prescription and confirm the
    prescribed legs and 2-edge detours exist with the prescribed colors."""
    adj = sorted_rows(g)
    dom = set(trace.dominating)
    zset, xset, yset = (
        trace.isolated_outside,
        trace.side_even,
        trace.side_odd,
    )

    def has_leg(v, color):
        return any(c == color for _, c in trace.legs[v])

    for subset in itertools.combinations(range(g.n), k):
        ordered = (
            sorted(v for v in subset if v in dom)
            + sorted(v for v in subset if v in zset)
            + sorted(v for v in subset if v in xset)
            + sorted(v for v in subset if v in yset)
        )
        d = sum(1 for v in subset if v in dom)
        y = sum(1 for v in subset if v in yset)
        if d == k:
            continue
        if y == 0:
            for pos in range(d + 1, k):  # positions d+1 .. k-1
                assert has_leg(ordered[pos - 1], pos)
            vk = ordered[k - 1]
            if vk in zset:
                assert has_leg(vk, k)
            else:
                assert any(
                    w in yset
                    and coloring.colors[edge(vk, w)] == k + 1
                    and has_leg(w, k)
                    for w in adj[vk]
                )
        elif d == 0 and len(subset) == y:
            for pos in range(1, k):
                assert has_leg(ordered[pos - 1], pos + 1)
            vk = ordered[k - 1]
            assert any(
                w in xset and coloring.colors[edge(vk, w)] == k + 1 and has_leg(w, 1)
                for w in adj[vk]
            )
        else:
            for pos in range(d + 1, k + 1):
                assert has_leg(ordered[pos - 1], pos)


def test_km1dom_k5():
    g = complete_graph(5)
    coloring, trace = color_km1dom(g, [0, 1], 3)
    assert coloring.color_count == 5
    check_km1_trace(g, 3, trace)
    replay_km1_cases(g, coloring, trace, 3)
    assert is_k_rainbow_connected(g, coloring, 3).ok


def test_km1dom_independent_outside_uses_only_leg_rule():
    # clique {0, 1} joined to an independent set {2, 3, 4}
    g = Graph.build(5, [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    coloring, trace = color_km1dom(g, [0, 1], 2)
    assert trace.isolated_outside == frozenset({2, 3, 4})
    assert not trace.side_even and not trace.side_odd
    assert trace.cross_color is None
    assert coloring.color_count == 3  # k legs + one tree edge
    assert is_k_rainbow_connected(g, coloring, 2).ok


def test_km1dom_petersen():
    g = petersen_graph()
    cert = greedy_connected_k_dominating(g, 2)
    coloring, trace = color_km1dom(g, cert, 3)
    assert coloring.color_count <= len(cert.vertices) - 1 + 3 + 1
    check_km1_trace(g, 3, trace)
    replay_km1_cases(g, coloring, trace, 3)
    assert is_k_rainbow_connected(g, coloring, 3).ok


def test_km1dom_rejects_low_degree():
    with pytest.raises(ValueError, match="minimum degree"):
        color_km1dom(cycle_graph(6), [0, 1, 2, 3], 3)


def test_km1dom_rejects_non_dominating():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        color_km1dom(g, [0], 4)  # {0} is not 3-dominating
    with pytest.raises(ValueError, match="does not induce a connected subgraph"):
        color_km1dom(cycle_graph(6), [0, 3], 2)  # dominating, but not connected


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_n=3, max_n=9), st.integers(2, 3))
def test_km1dom_random(g, k):
    if k > g.n or g.min_degree < k:
        return
    cert = greedy_connected_k_dominating(g, k - 1)
    coloring, trace = color_km1dom(g, cert, k)
    assert coloring.color_count <= len(cert.vertices) - 1 + k + 1
    assert set(coloring.colors.values()) == set(range(1, coloring.color_count + 1))
    check_km1_trace(g, k, trace)
    replay_km1_cases(g, coloring, trace, k)
    assert is_k_rainbow_connected(g, coloring, k).ok


# ---------------------------------------------------------------------------
# Coloring file format


def test_coloring_round_trip():
    g = complete_graph(4)
    coloring, _ = color_pipeline(g, 2)
    parsed = parse_coloring(format_coloring(coloring), g)
    assert parsed.colors == dict(coloring.colors)
    assert parsed.color_count == coloring.color_count


def test_format_coloring_reads_colours_by_edge():
    """One line per edge in ascending edge order, whatever order the
    colour mapping holds its edges in, and whether its keys are the graph's
    own tuples or equal ones; no lines for an edgeless graph."""
    g = gnp_connected_graph(12, 0.4, seed=2)
    order = sorted(g.edges)
    colors = {e: 1 + i % 5 for i, e in enumerate(order)}
    shuffled = list(colors.items())
    random.Random(1).shuffle(shuffled)
    lines = [f"{g.n} {g.m} 5"] + [f"{u} {v} {colors[(u, v)]}" for u, v in order]
    for keyed in (
        colors,
        dict(zip(g.sorted_edges(), colors.values())),
        dict(reversed(colors.items())),
        dict(shuffled),
    ):
        assert format_coloring(EdgeColoring(g, keyed, 5)) == "\n".join(lines) + "\n"
    assert format_coloring(EdgeColoring(Graph(3, frozenset()), {}, 0)) == "3 0 0\n"


def test_coloring_parse_errors():
    g = complete_graph(3)
    with pytest.raises(ParseError, match="mismatch"):
        parse_coloring("3 2 1\n0 1 1\n0 2 1", g)
    with pytest.raises(ParseError, match="outside"):
        parse_coloring("3 3 1\n0 1 1\n0 2 2\n1 2 1", g)
    with pytest.raises(ParseError, match="twice"):
        parse_coloring("3 3 2\n0 1 1\n0 1 2\n1 2 1", g)


def test_coloring_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="^line 1: header fields must be nonnegative$"):
        parse_coloring("-3 0 0")
    extra = "^line 3: more than the declared 1 edge lines$"
    with pytest.raises(ParseError, match=extra):
        parse_coloring("3 1 2\n0 1 1\n1 2 2")
    with pytest.raises(ParseError, match="^line 2: fields must be integers$"):
        parse_coloring("3 1 2\n0 1 x")


def test_coloring_graph_mismatches_name_the_line():
    g = path_graph(3)
    with pytest.raises(ParseError, match="^line 2: coloring is for n=4, graph has n=3$"):
        parse_coloring("# header next\n4 2 1\n0 1 1\n1 2 1", g)
    missing = "^line 3: edge set mismatch: \\(0, 2\\) is not in the graph$"
    with pytest.raises(ParseError, match=missing):
        parse_coloring("3 2 2\n0 1 1\n0 2 2", g)
    short = "^line 1: edge set mismatch: 1 colored edges, graph has 2$"
    with pytest.raises(ParseError, match=short):
        parse_coloring("3 1 1\n1 2 1", g)
    with pytest.raises(ParseError, match="^line 1: declared 2 edges but found 1$"):
        parse_coloring("3 2 1\n0 1 1", g)


#: Edits of a canonical coloring document, each a function of (lines, g,
#: rng) giving the edited lines; the header is lines[0] and every line keeps
#: its "\n". Every edit but the leading zeros hands the document to the
#: line reader.
COLORING_MUTATIONS = {
    "none": lambda lines, g, rng: lines,
    "leading zero": lambda lines, g, rng: [lines[0]] + ["0" + x for x in lines[1:]],
    "reversed pair": lambda lines, g, rng: _edit_record(
        lines, rng, lambda u, v, c: f"{v} {u} {c}\n"
    ),
    "two lines swapped": lambda lines, g, rng: _swap_records(lines, rng),
    "colour 0": lambda lines, g, rng: _edit_record(lines, rng, lambda u, v, c: f"{u} {v} 0\n"),
    "colour c + 1": lambda lines, g, rng: _edit_record(
        lines, rng, lambda u, v, c: f"{u} {v} {int(lines[0].split()[2]) + 1}\n"
    ),
    "foreign edge": lambda lines, g, rng: _edit_record(
        lines, rng, lambda u, v, c: "{} {} {}\n".format(*rng.choice(_non_edges(g)), c)
    ),
    "duplicate line": lambda lines, g, rng: _insert_after(lines, rng),
    "one line too few": lambda lines, g, rng: lines[:-1],
    "one line too many": lambda lines, g, rng: [_header(lines, m=-1)] + lines[1:],
    "header n": lambda lines, g, rng: [_header(lines, n=1)] + lines[1:],
    "header m": lambda lines, g, rng: [_header(lines, m=1)] + lines[1:],
}


def _edit_record(lines, rng, change):
    at = rng.randrange(1, len(lines))
    return lines[:at] + [change(*lines[at].split())] + lines[at + 1 :]


def _swap_records(lines, rng):
    at = rng.randrange(1, len(lines) - 1)
    return lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2 :]


def _insert_after(lines, rng):
    at = rng.randrange(1, len(lines))
    return lines[: at + 1] + lines[at:]


def _header(lines, n=0, m=0):
    """The header with ``n`` and ``m`` added to its first two fields."""
    fields = list(map(int, lines[0].split()))
    return f"{fields[0] + n} {fields[1] + m} {fields[2]}\n"


def _non_edges(g):
    return [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]


def _read_coloring(text, g):
    """What parse_coloring gives for ``text`` against ``g``: the coloring or
    the ParseError's text and line, and whether the line reader ran."""
    calls = []
    parse_records = coloring_module.parse_records

    def line_reader(*args):
        calls.append(args)
        return parse_records(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring_module, "parse_records", line_reader)
        try:
            result = parse_coloring(text, g)
        except ParseError as exc:
            result = (str(exc), exc.line_no)
    return result, bool(calls)


@settings(max_examples=400, deadline=None)
@given(
    graphs_with_subsets(max_n=12),
    st.sampled_from(sorted(COLORING_MUTATIONS)),
    # a palette below the record count reads colours by name, one above by int
    st.sampled_from([1, 2, 5, 40, 10**9]),
    st.randoms(),
)
def test_bulk_coloring_reader_agrees_with_the_line_reader(case, mutation, c, rng):
    """A document ``format_coloring`` writes is read in bulk, over the
    graph's own edge tuples, to the coloring the line reader builds; any
    edit the bulk path does not read the same hands the whole document to
    the line reader, so errors and line numbers come from it alone."""
    g, _ = case
    if mutation not in ("none", "leading zero", "header n", "header m"):
        assume(g.m >= 1)
    if mutation == "two lines swapped":
        assume(g.m >= 2)
    if mutation == "foreign edge":
        assume(_non_edges(g))
    colors = {e: rng.randint(1, min(c, 7)) for e in g.sorted_edges()}
    lines = format_coloring(EdgeColoring(g, colors, c)).splitlines(keepends=True)
    text = "".join(COLORING_MUTATIONS[mutation](lines, g, rng))
    result, handed_over = _read_coloring(text, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring_module, "_CANONICAL_COLORING", re.compile("(?!)"))
        assert _read_coloring(text, g) == (result, True)
    assert handed_over == (mutation not in ("none", "leading zero"))
    if not handed_over:
        assert result == EdgeColoring(g, colors, c)
        assert all(a is b for a, b in zip(result.colors, g.sorted_edges()))


def test_bulk_coloring_reader_needs_a_graph():
    g = path_graph(3)
    text = "3 2 2\n0 1 1\n1 2 2\n"
    assert _read_coloring(text, None) == (EdgeColoring(g, {(0, 1): 1, (1, 2): 2}, 2), True)
    assert _read_coloring(text, g) == (EdgeColoring(g, {(0, 1): 1, (1, 2): 2}, 2), False)


def test_double_claim_raises_invariant_violation(monkeypatch):
    # On K5 with D = {0, 1} the legs of vertex 2 are 02 and 12; a core tree
    # that also claims 02 is a construction bug, not bad input.
    monkeypatch.setattr(coloring_module, "bfs_tree_edges", lambda g, vs: [(0, 2)])
    with pytest.raises(InvariantViolation, match="claimed twice: leg then core-tree"):
        color_kdom(complete_graph(5), [0, 1], 2)
    assert issubclass(InvariantViolation, RuntimeError)


def test_edge_coloring_validates_totality():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 1}, 1)
    # the keys must be the edge set, in edge order or not, as the graph's own
    # tuples or equal ones
    g = gnp_connected_graph(12, 0.4, seed=2)
    order = g.sorted_edges()
    foreign = _non_edges(g)[0]
    for keys, total in (
        (order, True),
        (order[::-1], True),
        ([tuple(list(e)) for e in order], True),
        (order[:3] + (foreign,) + order[4:], False),
        (order[:-1], False),
        (order + (foreign,), False),
        ((foreign,) + order[1:], False),
    ):
        colors = dict.fromkeys(keys, 1)
        if total:
            assert EdgeColoring(g, colors, 1).colors is colors
        else:
            with pytest.raises(ValueError, match="^coloring must cover exactly the graph's edges$"):
                EdgeColoring(g, colors, 1)


def test_edge_coloring_names_the_first_colour_out_of_range():
    g = path_graph(4)
    for bad in (0, 4, -2):
        colors = {(0, 1): 1, (1, 2): bad, (2, 3): 9}
        with pytest.raises(ValueError, match=rf"^color {bad} on edge \(1, 2\) outside 1\.\.3$"):
            EdgeColoring(g, colors, 3)
    with pytest.raises(ValueError, match=r"^color 2 on edge \(0, 1\) outside 1\.\.0$"):
        EdgeColoring(Graph(2, frozenset({(0, 1)})), {(0, 1): 2}, 0)
    EdgeColoring(Graph(2, frozenset({(0, 1)})), {(0, 1): 1}, 0)  # palette of at least 1


def test_bulk_claim_raises_on_a_double_claim():
    claims = coloring_module._Claims()
    claims.claim((0, 1), 3, "leg")
    with pytest.raises(InvariantViolation, match=r"edge \(0, 1\) claimed twice: leg then attach"):
        claims.claim_all([(1, 2), (0, 1)], 1, "attach")
    with pytest.raises(InvariantViolation, match=r"edge \(2, 3\) claimed twice: cross then cross"):
        coloring_module._Claims().claim_all([(2, 3), (0, 2), (2, 3)], 4, "cross")
    claims = coloring_module._Claims()
    claims.claim_all([(1, 2), (0, 1)], 1, "attach")
    assert claims.colors == {(1, 2): 1, (0, 1): 1}
    assert claims.rule_of == {(1, 2): "attach", (0, 1): "attach"}
