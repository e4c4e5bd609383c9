import itertools
import random
import re
import time
import tracemalloc
import warnings

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rainbowindex import (
    GenerationError,
    Graph,
    ParseError,
    bfs_tree_edges,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance,
    edge,
    format_edge_list,
    generate,
    gnp_connected_graph,
    is_k_step_dominating,
    k_step_neighborhood,
    parse_edge_list,
    path_graph,
    petersen_graph,
    split_two,
    steiner_diameter,
)
from rainbowindex import graph as graph_module
from rainbowindex.graph import (
    balls,
    bfs_forest,
    component_masks,
    set_bits,
    shortest_path_between_masks,
    steiner_diameter_steps,
    vertex_mask,
)
from tests.oracles import oracle_steiner_diameter, oracle_steiner_distance, sorted_rows
from tests.test_dominate_incremental import (
    ref_bfs,
    ref_components_within,
    ref_shortest_path,
    sparse_connected_graphs,
)


@st.composite
def connected_graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    # random spanning tree first, then extra edges
    tree = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        tree.append((u, v))
    all_pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    return Graph.build(n, set(tree) | extra)


# ---------------------------------------------------------------------------
# Construction, equality and immutability


def test_checked_constructor_takes_any_iterable_of_pairs():
    pairs = [(1, 2), (0, 1)]
    graphs = [Graph(3, pairs), Graph(3, iter(pairs)), Graph(3, frozenset(pairs))]
    for g in graphs:
        assert g.m == 2 and g.sorted_edges() == ((0, 1), (1, 2))
        assert g == graphs[0] and hash(g) == hash(graphs[0])
    assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(1, 2), (0, 1)])
    assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, {(0, 1)}))
    assert Graph(3, pairs) != Graph(4, pairs) and Graph(3, pairs) != Graph(3, pairs[:1])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1), (0, 1)], r"repeated edge \(0, 1\)"),
        ([(1, 2), (0, 2), (1, 2), (0, 2)], r"repeated edge \(0, 2\)"),
        ([(1, 3), (0, 1), (0, 1)], r"repeated edge \(0, 1\)"),
        ([(1, 0)], r"invalid edge \(1, 0\) for n=3"),
        ([(2, 2)], r"invalid edge \(2, 2\) for n=3"),
        ([(1, 3), (0, 5), (-1, 2)], r"invalid edge \(-1, 2\) for n=3"),
    ],
)
def test_checked_constructor_names_the_lowest_invalid_edge(pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(3, pairs)


def _one_graph_per_source(seed: int) -> dict[str, Graph]:
    """Three graphs on one edge set, one from each way in: a split side,
    stored as its rows; the checked constructor; and the bulk reader."""
    parent = gnp_connected_graph(30, 0.4, seed=seed)
    # the order comes from a side of its own: the side returned holds rows only
    order = split_two(parent)[0].sorted_edges()
    checked = Graph(parent.n, frozenset(order))
    return {
        "split side": split_two(parent)[0],
        "checked": checked,
        "bulk reader": parse_edge_list(format_edge_list(checked)),
    }


SOURCES = ("split side", "checked", "bulk reader")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", ["n", "edges"])
def test_graph_attributes_cannot_be_assigned(source, name):
    g = _one_graph_per_source(1)[source]
    before = getattr(g, name)
    with pytest.raises(AttributeError):
        setattr(g, name, before)
    with pytest.raises(AttributeError):
        setattr(g, name, None)
    assert getattr(g, name) == before


@pytest.mark.parametrize("seed", [1, 2])
def test_graphs_on_the_same_edges_are_equal_whatever_their_source(seed):
    # fresh graphs for each pair, so no form is built before the comparison
    for a, b in itertools.product(SOURCES, repeat=2):
        x, y = _one_graph_per_source(seed)[a], _one_graph_per_source(seed)[b]
        assert hash(x) == hash(y) and x == y and not x != y
    g = _one_graph_per_source(seed)["split side"]
    assert g != Graph(g.n + 1, g.sorted_edges()) and g != g.sorted_edges()


# ---------------------------------------------------------------------------
# Parsing


def test_parse_path_on_three():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g == complete_graph(3)


def test_parse_rejects_loop():
    with pytest.raises(ParseError, match="loop"):
        parse_edge_list("2 1\n0 0")


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 5")


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 x")


def test_parse_rejects_wrong_count():
    with pytest.raises(ParseError, match="declared 2"):
        parse_edge_list("3 2\n0 1")


def test_parse_wrong_count_names_the_header_line():
    with pytest.raises(ParseError, match="^line 2: declared 2 edges but found 1$"):
        parse_edge_list("# two edges\n3 2\n0 1")


def test_parse_collapses_duplicates_with_warning():
    with pytest.warns(UserWarning, match="duplicate"):
        g = parse_edge_list("3 3\n0 1\n1 0\n1 2")
    assert g.m == 2


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# a path\n3 2\n\n0 1\n# middle\n1 2\n")
    assert g.m == 2


def test_format_round_trip():
    g = petersen_graph()
    assert parse_edge_list(format_edge_list(g)) == g


# ---------------------------------------------------------------------------
# Generators


def test_complete_graph_k4():
    assert complete_graph(4).m == 6


def test_cycle_all_degree_two():
    g = cycle_graph(5)
    assert all(g.degree(v) == 2 for v in range(5))


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert steiner_diameter(g, 2) == 2


def test_gnp_deterministic():
    a = gnp_connected_graph(20, 0.5, seed=7)
    b = gnp_connected_graph(20, 0.5, seed=7)
    assert a == b and a.is_connected


def test_gnp_retry_cap():
    with pytest.raises(GenerationError):
        gnp_connected_graph(5, 0.0, seed=1)


def test_generate_dispatch_and_param_errors():
    assert generate("cycle", n=6) == cycle_graph(6)
    with pytest.raises(ValueError):
        generate("gnp", n=5, p=1.5)
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("nonsense", n=3)


# ---------------------------------------------------------------------------
# Distances and neighborhoods


def test_distance_examples():
    c6 = cycle_graph(6)
    assert distance(c6, 0, 3) == 3
    assert distance(c6, 2, 2) == 0
    p4 = path_graph(4)
    assert distance(p4, 0, 3) == 3
    for u, v, bad in ((0, 5, 5), (5, 0, 5), (7, 5, 5), (-1, 2, -1), (1, -2, -2)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            distance(path_graph(3), u, v)


def test_distance_unreachable_is_none():
    g = Graph.build(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) is None


def test_path_search_length_examples():
    c6 = cycle_graph(6)
    assert len(shortest_path_between_masks(c6, 0b1, 0b1000)) - 1 == 3
    assert len(shortest_path_between_masks(c6, 0b11, 0b110)) - 1 == 0
    p7 = path_graph(7)
    assert len(shortest_path_between_masks(p7, 0b11, 0b1100000)) - 1 == 4
    assert shortest_path_between_masks(c6, 0, 0b10) is None
    assert shortest_path_between_masks(c6, 0b10, 0) is None


def test_k_step_neighborhood_examples():
    c6 = cycle_graph(6)
    assert k_step_neighborhood(c6, [0], 2) == (2, 4)
    k4 = complete_graph(4)
    assert k_step_neighborhood(k4, [0], 2) == ()
    p7 = path_graph(7)
    assert k_step_neighborhood(p7, [0, 6], 3) == (3,)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_step_levels_partition_ball(g, data):
    dom = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
    )
    j = data.draw(st.integers(1, 4))
    layers = balls(g, dom)
    levels = [set(k_step_neighborhood(g, dom, i)) for i in range(1, j + 1)]
    for a, b in itertools.combinations(levels, 2):
        assert not a & b
    union = set(dom).union(*levels)
    assert union == set(set_bits(layers[min(j, len(layers) - 1)]))


# ---------------------------------------------------------------------------
# Steiner distance and diameter


def _rows_distance(g, terminals):
    """The Steiner distance of ``terminals`` as the diameter's rows table
    holds it: the entry, at the highest terminal, of the row of the rest."""
    ts = sorted(set(terminals))
    if len(ts) == 1:
        return 0
    rows = dict(graph_module._steiner_rows(g, ts[:-1], len(ts) - 1))
    return rows[vertex_mask(g, ts[:-1])][ts[-1]]


def test_steiner_complete_is_star():
    k5 = complete_graph(5)
    assert _rows_distance(k5, [0, 2, 4]) == oracle_steiner_distance(k5, [0, 2, 4]) == 2


def test_steiner_path_endpoints():
    p4 = path_graph(4)
    assert _rows_distance(p4, [0, 3]) == oracle_steiner_distance(p4, [0, 3]) == 3


def test_steiner_c6_alternating_terminals():
    # no 4-vertex superset of {0, 2, 4} induces a connected subgraph of C6,
    # so the minimum is 5 vertices, 4 edges, and no 3-set needs more
    c6 = cycle_graph(6)
    assert _rows_distance(c6, [0, 2, 4]) == oracle_steiner_distance(c6, [0, 2, 4]) == 4
    assert steiner_diameter(c6, 3) == 4


def test_steiner_rejects_disconnected():
    g = Graph.build(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^requires a connected graph$"):
        steiner_diameter(g, 2)
    with pytest.raises(ValueError):
        oracle_steiner_distance(g, [0, 3])


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_steiner_rows_agree_with_the_oracle(g, data):
    k = data.draw(st.integers(2, min(5, g.n)))
    terms = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k)
    )
    assert _rows_distance(g, terms) == oracle_steiner_distance(g, terms)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_steiner_pair_equals_distance(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    if u == v:
        return
    assert _rows_distance(g, [u, v]) == distance(g, u, v)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=7), st.data())
def test_steiner_monotone_under_terminal_growth(g, data):
    small = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    extra = data.draw(st.integers(0, g.n - 1))
    big = set(small) | {extra}
    assert _rows_distance(g, small) <= _rows_distance(g, big)


def test_steiner_diameter_examples():
    for n in (4, 5, 6):
        for k in range(2, n + 1):
            assert steiner_diameter(complete_graph(n), k) == k - 1
    assert steiner_diameter(path_graph(6), 2) == 5
    assert steiner_diameter(cycle_graph(6), 3) == 4


@settings(max_examples=60, deadline=None)
@given(sparse_connected_graphs())
@example(cycle_graph(7))
@example(petersen_graph())
@example(path_graph(5))
def test_steiner_diameter_two_is_diameter(g):
    # at k = 2 the rows are the singletons' rows alone, each one _relax
    # from 0 at its vertex; n runs past the networkx oracle's 8 vertices
    assert steiner_diameter(g, 2) == max(max(ref_bfs(g, [x])) for x in range(g.n))


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=7), st.data())
def test_steiner_diameter_chain(g, data):
    k = data.draw(st.integers(2, g.n))
    sd = steiner_diameter(g, k)
    assert k - 1 <= sd <= g.n - 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8))
def test_steiner_diameter_matches_oracle(g):
    for k in range(2, g.n + 1):
        assert steiner_diameter(g, k) == oracle_steiner_diameter(g, k)


def _refuse(*args):
    raise AssertionError("steiner_diameter took the other path")


#: G(8, 14): an 8-cycle with six chords, the shape of the exact benchmark
DESK_GRAPH = Graph.build(
    8,
    [(i, (i + 1) % 8) for i in range(8)]
    + [(0, 2), (0, 4), (1, 5), (2, 6), (3, 7), (5, 7)],
)

#: two triangles sharing vertex 0
BOWTIE = Graph.build(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def _each_table(g, k):
    """steiner_diameter(g, k) with the estimate patched to pick the rows
    table, then the removal table."""
    values = []
    for steps in ((0, 1), (1, 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "steiner_diameter_steps", lambda n, m, k: steps)
            values.append(steiner_diameter(g, k))
    return values


@settings(max_examples=12, deadline=None)
@given(connected_graphs(max_n=12))
@example(cycle_graph(12))
# removing most vertex sets disconnects these graphs
@example(Graph.build(8, [(0, v) for v in range(1, 8)]))  # K1,7
@example(path_graph(9))
@example(  # two K4s joined by a bridge
    Graph.build(
        8,
        list(itertools.combinations(range(4), 2))
        + list(itertools.combinations(range(4, 8), 2))
        + [(3, 4)],
    )
)
# the removal table's shortcut falls back to a walk on these
@example(cycle_graph(8))
@example(BOWTIE)
@example(complete_bipartite_graph(2, 5))
# and decides every entry of this one
@example(complete_graph(8))
def test_steiner_diameter_tables_agree(g):
    # the rows at every k of a 12-vertex graph take about 2 s
    for k in range(2, g.n + 1):
        rows, removal = _each_table(g, k)
        assert rows == removal


@pytest.mark.parametrize(
    "g, walks",
    [
        (complete_graph(8), False),
        (cycle_graph(8), True),
        (BOWTIE, True),
        (complete_bipartite_graph(2, 5), True),
    ],
    ids=["K8", "C8", "bowtie", "K2,5"],
)
def test_removal_table_walks_only_where_the_shortcut_fails(monkeypatch, g, walks):
    # a walk is needed where a vertex's neighbours outside the removed set
    # are not all next to the lowest of them: opposite cycle vertices, the
    # two triangles at the bowtie's centre, the independent side of K2,5
    calls = []

    def counted(graph, mask):
        calls.append(mask)
        return component_masks(graph, mask)

    monkeypatch.setattr(graph_module, "component_masks", counted)
    for k in range(2, g.n + 1):
        graph_module._removal_table(g, k)
    assert bool(calls) == walks


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8))
def test_steiner_diameter_tables_match_oracle(g):
    for k in range(2, g.n + 1):
        assert _each_table(g, k) == [oracle_steiner_diameter(g, k)] * 2


def test_steiner_diameter_takes_the_rows_on_a_desk_scale_graph(monkeypatch):
    rows, removal = steiner_diameter_steps(8, 14, 3)
    assert DESK_GRAPH.m == 14 and rows <= removal
    expected = oracle_steiner_diameter(DESK_GRAPH, 3)
    monkeypatch.setattr(graph_module, "_removal_table", _refuse)
    assert steiner_diameter(DESK_GRAPH, 3) == expected


@pytest.mark.parametrize(
    "n, m, k, table",
    [
        # exact: G(8, 14); at k = 4 the removal table measured faster
        (8, 14, 2, "rows"),
        (8, 14, 4, "removal"),
        # certify's report shapes
        (10, 22, 2, "rows"),
        (12, 28, 3, "rows"),
        (14, 40, 2, "rows"),
    ],
)
def test_benchmark_shapes_take_the_measured_table(n, m, k, table):
    rows, removal = steiner_diameter_steps(n, m, k)
    assert ("rows" if rows <= removal else "removal") == table


def test_steiner_diameter_takes_the_removal_table_when_k_is_near_n(monkeypatch):
    # rows would cover every set of up to 20 of the 22 vertices, about four
    # million; the removal table holds the 23 sets of at most one vertex
    g = gnp_connected_graph(22, 0.3, seed=1)
    rows, removal = steiner_diameter_steps(22, g.m, 21)
    assert removal < rows
    monkeypatch.setattr(graph_module, "_relax", _refuse)
    assert steiner_diameter(g, 21) == 20


@pytest.mark.parametrize(
    "g, k, expected",
    [
        (cycle_graph(16), 9, 14),
        (cycle_graph(17), 10, 15),
        (cycle_graph(18), 12, 16),
        (gnp_connected_graph(30, 0.3, seed=1), 26, 26),
    ],
    ids=["C16-9", "C17-10", "C18-12", "G30-26"],
)
def test_steiner_diameter_is_fast_for_k_near_n(g, k, expected):
    # one Steiner distance per k-subset took 12-28 s on the cycles
    started = time.perf_counter()
    assert steiner_diameter(g, k) == expected
    assert time.perf_counter() - started < 5.0


def test_steiner_diameter_rejects_bad_k():
    with pytest.raises(ValueError):
        steiner_diameter(cycle_graph(5), 1)
    with pytest.raises(ValueError):
        steiner_diameter(cycle_graph(5), 6)


# ---------------------------------------------------------------------------
# Induced BFS forest


@st.composite
def graphs_with_subsets(draw, max_n=30):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    subset = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Graph.build(n, edges), subset


def nx_graph(g: Graph, vertices) -> nx.Graph:
    vs = set(vertices)
    h = nx.Graph()
    h.add_nodes_from(vs)
    h.add_edges_from((u, v) for u, v in g.edges if u in vs and v in vs)
    return h


def components_of(g: Graph, vertices) -> list[tuple[int, ...]]:
    """``component_masks`` of the vertices' mask, as sorted vertex tuples."""
    return [tuple(set_bits(c)) for c in component_masks(g, vertex_mask(g, vertices))]


@settings(max_examples=300, deadline=None)
@given(graphs_with_subsets())
def test_induced_forest_matches_references(case):
    g, subset = case
    comps = components_of(g, subset)
    assert comps == ref_components_within(g, subset)
    h = nx_graph(g, subset)
    assert sorted(comps) == sorted(tuple(sorted(c)) for c in nx.connected_components(h))
    assert components_of(g, range(g.n)) == ref_components_within(g, range(g.n))
    assert g.is_connected == (g.n <= 1 or nx.is_connected(nx_graph(g, range(g.n))))

    forest = bfs_forest(g, subset)
    assert set(forest) == subset
    order = {v: i for i, v in enumerate(forest)}
    roots = [v for v, p in forest.items() if p is None]
    assert roots == [comp[0] for comp in comps]
    for v, p in forest.items():
        if p is not None:
            assert edge(p, v) in g.edges and order[p] < order[v]
    if len(comps) == 1:
        tree = bfs_tree_edges(g, subset)
        assert len(tree) == len(subset) - 1
        assert len(subset) == 1 or nx.is_tree(nx.Graph(tree))
    elif comps:
        with pytest.raises(ValueError, match="disconnected"):
            bfs_tree_edges(g, subset)


def test_components_and_min_degree_on_bitmask_edge_cases():
    """The bitmask component walk and min degree where the rows are empty
    or short: no vertices, one vertex, isolated vertices, and an isolated
    top vertex n - 1 that no ``spread`` step reaches."""
    cases = [
        Graph(0, frozenset()),
        Graph(1, frozenset()),
        Graph(4, frozenset()),
        Graph.build(5, [(0, 1), (1, 2), (2, 3)]),  # vertex 4 isolated
        Graph.build(6, [(1, 2), (3, 4)]),  # 0 and 5 isolated
        Graph.build(3, [(0, 1)]),
        Graph.build(70, [(v, v + 1) for v in range(68)]),  # 69 isolated
    ]
    for g in cases:
        ref = ref_components_within(g, range(g.n))
        assert components_of(g, range(g.n)) == ref
        assert g.is_connected == (len(ref) <= 1)
        assert g.min_degree == min(map(len, sorted_rows(g)), default=0)
    assert component_masks(Graph(0, frozenset()), 0) == []
    assert component_masks(Graph(1, frozenset()), 1) == [1]
    assert component_masks(Graph.build(5, [(0, 1), (1, 2), (2, 3)]), 31)[-1] == 1 << 4


def test_bfs_forest_rejects_out_of_range_vertices():
    cases = (([-1, 0], -1), ([0, 3], 3), ([3], 3), ([1, -1], -1), ([5, 0, 4], 4))
    for bad, low in cases:
        with pytest.raises(ValueError, match="out of range"):
            bfs_forest(path_graph(3), bad)
        # a vertex list reaches component_masks and the path search only
        # through vertex_mask
        with pytest.raises(ValueError, match=f"vertex {low} out of range"):
            vertex_mask(path_graph(3), bad)


def test_component_masks_rejects_bits_out_of_range():
    p3 = path_graph(3)
    for mask in (1 << 3, 0b1011, -1):
        with pytest.raises(ValueError, match="outside 0..n-1"):
            component_masks(p3, mask)
    assert component_masks(p3, 0b101) == [0b001, 0b100]
    assert component_masks(p3, 0) == []


# ---------------------------------------------------------------------------
# Cached edge order


@settings(max_examples=100, deadline=None)
@given(graphs_with_subsets())
def test_sorted_edges_is_the_cached_sort(case):
    g, _ = case
    order = g.sorted_edges()
    assert order == tuple(sorted(g.edges))
    assert g.sorted_edges() is order
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert g.adj_bits == tuple(masks)


# ---------------------------------------------------------------------------
# Bulk edge-list reader


#: Edits of a canonical document, each a function of (lines, n, rng) giving
#: the edited lines; the header is lines[0] and every line keeps its "\n".
READER_MUTATIONS = {
    "none": lambda lines, n, rng: lines,
    "leading zero": lambda lines, n, rng: [lines[0]] + ["0" + x for x in lines[1:]],
    "comment line": lambda lines, n, rng: _insert(lines, rng, "# note\n"),
    "blank line": lambda lines, n, rng: _insert(lines, rng, "\n"),
    "crlf": lambda lines, n, rng: [x.replace("\n", "\r\n") for x in lines],
    "tab": lambda lines, n, rng: _edit_line(lines, rng, lambda x: x.replace(" ", "\t")),
    "no final newline": lambda lines, n, rng: lines[:-1] + [lines[-1].rstrip("\n")],
    "loop": lambda lines, n, rng: _add_record(lines, rng, f"{n - 1} {n - 1}\n"),
    "duplicate": lambda lines, n, rng: _add_record(
        lines, rng, " ".join(reversed(rng.choice(lines[1:]).split())) + "\n"
    ),
    # the copy right after its record: still non-decreasing, not ascending
    "repeated record": lambda lines, n, rng: _repeat_record(lines, rng),
    "endpoint >= n": lambda lines, n, rng: _add_record(lines, rng, f"0 {n + rng.randrange(3)}\n"),
    "too few records": lambda lines, n, rng: lines[:-1],
    "too many records": lambda lines, n, rng: _set_count(lines, len(lines) - 2),
    "3-field header": lambda lines, n, rng: [lines[0].replace("\n", " 0\n")] + lines[1:],
    # the same digit in ARABIC-INDIC DIGIT form, which int() reads
    "non-ASCII digit": lambda lines, n, rng: _edit_line(
        lines, rng, lambda x: re.sub("[0-9]", lambda d: chr(0x660 + int(d[0])), x, count=1)
    ),
}


def _insert(lines, rng, line):
    at = rng.randrange(len(lines) + 1)
    return lines[:at] + [line] + lines[at:]


def _edit_line(lines, rng, change):
    at = rng.randrange(len(lines))
    return lines[:at] + [change(lines[at])] + lines[at + 1 :]


def _set_count(lines, m):
    return [f"{lines[0].split()[0]} {m}\n"] + lines[1:]


def _add_record(lines, rng, record):
    """Insert a record among the records and raise the declared count."""
    at = rng.randrange(1, len(lines) + 1)
    return _set_count(lines[:at] + [record] + lines[at:], len(lines))


def _repeat_record(lines, rng):
    """Repeat a record right after itself and raise the declared count."""
    at = rng.randrange(1, len(lines))
    return _set_count(lines[: at + 1] + lines[at:], len(lines))


#: Record layouts the reader test starts from, before any edit: about half
#: the records reversed and all shuffled; the ascending order
#: ``format_edge_list`` writes; and that order with two adjacent records
#: swapped.
READER_LAYOUTS = ("shuffled", "ascending", "ascending, two swapped")


def _records(g, layout, rng):
    if layout == "shuffled":
        records = [f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n" for u, v in g.edges]
        rng.shuffle(records)
        return records
    records = [f"{u} {v}\n" for u, v in sorted(g.edges)]
    if layout == "ascending, two swapped":
        at = rng.randrange(len(records) - 1)
        records[at : at + 2] = records[at + 1], records[at]
    return records


def spy_on_ascending_reads(mp) -> list:
    """Patch ``Graph._unchecked`` through the MonkeyPatch ``mp`` to record
    the edge order of each call given one; returns the list it records into."""
    reads = []
    unchecked = Graph._unchecked

    def spy(n, **form):
        if "order" in form:
            reads.append(form["order"])
        return unchecked(n, **form)

    mp.setattr(Graph, "_unchecked", spy)
    return reads


def _read(text):
    """What parse_edge_list gives for ``text``: the graph or the ParseError's
    text and line, then the warnings it raised, and whether the line reader
    ran."""
    calls = []
    parse_records = graph_module.parse_records

    def line_reader(*args):
        calls.append(args)
        return parse_records(*args)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(graph_module, "parse_records", line_reader)
        try:
            result = parse_edge_list(text)
        except ParseError as exc:
            result = (str(exc), exc.line_no)
    return result, [str(w.message) for w in caught], bool(calls)


@settings(max_examples=600, deadline=None)
@given(
    graphs_with_subsets(max_n=12),
    st.sampled_from(sorted(READER_MUTATIONS)),
    st.sampled_from(READER_LAYOUTS),
    st.randoms(),
)
def test_bulk_reader_agrees_with_the_line_reader(case, mutation, layout, rng):
    """A canonical document is read in bulk, to the graph the line reader
    builds; any edit the bulk path does not read the same hands the whole
    document to the line reader, so errors, line numbers and duplicate
    warnings come from it alone. Whatever the record layout, a bulk read
    starts the graph from its sorted edges as the edge order."""
    g, _ = case
    assume(g.n >= 1)
    if layout == "ascending, two swapped":
        assume(g.m >= 2)
    records = _records(g, layout, rng)
    lines = [f"{g.n} {g.m}\n"] + records
    if mutation in ("duplicate", "repeated record"):
        assume(g.m >= 1)
    text = "".join(READER_MUTATIONS[mutation](lines, g.n, rng))
    with pytest.MonkeyPatch.context() as mp:
        ascending_reads = spy_on_ascending_reads(mp)
        result, caught, handed_over = _read(text)
    assert ascending_reads == ([] if handed_over else [g.sorted_edges()])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_CANONICAL_EDGE_LIST", re.compile("(?!)"))
        assert _read(text) == (result, caught, True)
    assert handed_over == (mutation not in ("none", "leading zero"))
    if not handed_over:
        assert result == g and not caught


def _assert_same_graph(read, fresh):
    assert read.adj_bits == fresh.adj_bits
    assert read.sorted_edges() == fresh.sorted_edges() == tuple(sorted(fresh.edges))
    full = (1 << fresh.n) - 1
    assert component_masks(read, full) == component_masks(fresh, full)
    assert read.is_connected == fresh.is_connected
    assert read.min_degree == fresh.min_degree
    assert read == fresh and hash(read) == hash(fresh)


@settings(max_examples=100, deadline=None)
@given(graphs_with_subsets(max_n=70))
def test_ascending_document_reads_to_the_checked_graph(case):
    """An unedited document in ``format_edge_list``'s order starts from its
    records as the edge order, and is the graph the checked constructor
    builds on every view."""
    g, _ = case
    read = parse_edge_list(format_edge_list(g))
    assert "_edge_order" in read.__dict__
    _assert_same_graph(read, Graph(g.n, g.edges))


@pytest.mark.parametrize("n, p", [(130, 0.05), (130, 0.3), (200, 0.5)])
def test_ascending_document_reads_to_the_checked_graph_on_wide_rows(n, p):
    g = gnp_connected_graph(n, p, seed=7)
    _assert_same_graph(parse_edge_list(format_edge_list(g)), Graph(g.n, g.edges))


def test_reader_builds_no_rows_for_a_declared_vertex_count():
    # the header's n is untrusted: rows are built only when a caller reads them
    g = parse_edge_list("100000000 1\n0 1\n")
    assert g.n == 100_000_000 and g.sorted_edges() == ((0, 1),)
    assert "adj_bits" not in g.__dict__


def test_reader_names_no_more_vertices_than_the_document_has_tokens(monkeypatch):
    # a table of the header's 10^9 vertex names would take minutes and far
    # more memory than the machine has, so str fails after a few calls
    names = []

    def counted_str(value):
        names.append(value)
        if len(names) > 100:
            raise AssertionError("the reader names more vertices than it has tokens")
        return str(value)

    monkeypatch.setattr(graph_module, "str", counted_str, raising=False)
    # as many tokens as vertices: each vertex is named once
    assert parse_edge_list("4 2\n0 1\n2 3\n").sorted_edges() == ((0, 1), (2, 3))
    assert names == [0, 1, 2, 3]
    names.clear()
    text = "1000000000 1\n0 1\n"
    started = time.perf_counter()
    g = parse_edge_list(text)
    assert time.perf_counter() - started < 1.0 and names == []
    monkeypatch.setattr(graph_module, "_CANONICAL_EDGE_LIST", re.compile("(?!)"))
    assert g == parse_edge_list(text) and g.n == 10**9 and g.sorted_edges() == ((0, 1),)


@pytest.mark.parametrize("records", ["", "".join(f"0 {v}\n" for v in range(1, 20_000))])
def test_bitmask_rows_cost_what_the_edges_hold(records):
    """The first ``adj_bits`` read of an edgeless graph and of a star on
    20,000 vertices stays far below the 25 MB that a table of every vertex's
    bit would hold; the rows themselves take about 0.3 MB."""
    n, m = 20_000, records.count("\n")
    g = parse_edge_list(f"{n} {m}\n{records}")
    tracemalloc.start()
    try:
        rows = g.adj_bits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert rows[0].bit_count() == g.m and sum(map(int.bit_count, rows)) == 2 * g.m


# ---------------------------------------------------------------------------
# The bitmask-row BFS against a plain queue BFS


def ref_bfs_forest(g: Graph, vertices) -> dict:
    """``bfs_forest`` by a plain queue over the sorted rows of g: each root
    the lowest vertex not yet reached, first arrival wins."""
    adj = sorted_rows(g)
    inside = set(vertices)
    parent = {}
    for root in sorted(inside):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if w in inside and w not in parent:
                    parent[w] = v
                    queue.append(w)
    return parent


@st.composite
def wide_graphs_with_subsets(draw, max_n=130):
    """G(n, p) up to ``max_n`` vertices, so the rows span several machine
    words, with a vertex subset of any density."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.3, 0.7]))
    keep = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges), {v for v in range(n) if rng.random() < keep}


@settings(max_examples=300, deadline=None)
@given(wide_graphs_with_subsets(), st.data())
def test_bfs_forest_matches_a_plain_queue_bfs(case, data):
    g, subset = case
    forest = bfs_forest(g, subset)
    assert list(forest.items()) == list(ref_bfs_forest(g, subset).items())
    if subset and g.n:
        b = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        dist = ref_bfs(g, subset)
        reachable = any(dist[v] is not None for v in b)
        expected = ref_shortest_path(g, subset, b) if reachable else None
        path = shortest_path_between_masks(g, vertex_mask(g, subset), vertex_mask(g, b))
        assert path == expected


# ---------------------------------------------------------------------------
# Distance helpers against the plain queue BFS


@settings(max_examples=300, deadline=None)
@given(graphs_with_subsets(), st.data())
def test_distance_helpers_match_references(case, data):
    g, a = case
    assume(a)
    b = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    u, v = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    dist = ref_bfs(g, a)
    # ring r of the balls holds exactly the vertices at distance r, and the
    # last ball every reachable vertex
    layers = balls(g, a)
    rings = [layers[0]] + [outer & ~inner for inner, outer in zip(layers, layers[1:])]
    assert [list(set_bits(ring)) for ring in rings] == [
        [x for x in range(g.n) if dist[x] == r] for r in range(len(rings))
    ]
    assert layers[-1] == vertex_mask(g, (x for x in range(g.n) if dist[x] is not None))
    assert distance(g, u, v) == ref_bfs(g, [u])[v]
    for j in range(5):
        within = all(d is not None and d <= j for d in dist)
        assert is_k_step_dominating(g, a, j) == within
    for j in range(1, 5):
        ring = tuple(x for x in range(g.n) if dist[x] == j)
        assert k_step_neighborhood(g, a, j) == ring
    reach = [dist[x] for x in b if dist[x] is not None]
    path = shortest_path_between_masks(g, vertex_mask(g, a), vertex_mask(g, b))
    assert path == (ref_shortest_path(g, a, b) if reach else None)
    if reach:
        assert len(path) - 1 == min(reach)
    if not g.is_connected:
        with pytest.raises(ValueError, match="connected"):
            steiner_diameter(g, 2)
    elif g.n >= 2:
        assert steiner_diameter(g, 2) == max(max(ref_bfs(g, [x])) for x in range(g.n))


@settings(max_examples=200, deadline=None)
@given(sparse_connected_graphs(), st.data())
def test_shortest_path_matches_reference_on_connected_graphs(g, data):
    """The path oracle where graphs_with_subsets rarely goes: its graphs are
    mostly disconnected, so here A and B lie in one component and are 3 or
    more apart, overlap, or one of them is the whole vertex set."""
    vertex = st.integers(0, g.n - 1)
    a = data.draw(st.sets(vertex, min_size=1, max_size=3))
    case = data.draw(st.sampled_from(["far", "overlap", "all of A", "all of B"]))
    if case == "far":
        far = [v for v, d in enumerate(ref_bfs(g, a)) if d >= 3]
        assume(far)
        b = data.draw(st.sets(st.sampled_from(far), min_size=1))
    elif case == "overlap":
        b = data.draw(st.sets(vertex)) | {data.draw(st.sampled_from(sorted(a)))}
    elif case == "all of A":
        a, b = set(range(g.n)), data.draw(st.sets(vertex, min_size=1))
    else:
        b = set(range(g.n))
    path = shortest_path_between_masks(g, vertex_mask(g, a), vertex_mask(g, b))
    assert path == ref_shortest_path(g, a, b)


def test_mask_path_search_rejects_bits_out_of_range():
    p4 = path_graph(4)
    for amask, bmask in ((1 << 4, 1), (1, 1 << 4), (-1, 1), (1, -2)):
        with pytest.raises(ValueError, match="outside 0..n-1"):
            shortest_path_between_masks(p4, amask, bmask)
