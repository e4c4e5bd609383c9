import functools
import gc
import hashlib
import itertools
import operator
import random
from types import SimpleNamespace

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    Graph,
    SearchBudgetExceeded,
    TreeWitness,
    all_distinct_coloring,
    bfs_tree_edges,
    bounds_report,
    color_kdom,
    color_km1dom,
    color_pipeline,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    exact_rx_k,
    exists_rainbow_stree,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    is_k_rainbow_connected,
    min_degree_upper_bound,
    path_graph,
    spanning_tree_coloring,
    steiner_diameter,
    steiner_distance,
)
from rainbowindex import graph as graph_module
from rainbowindex import verify as verify_module
from rainbowindex.graph import InvariantViolation, is_tree_witness, steiner_diameter_steps
from tests.oracles import (
    oracle_exact_rx,
    oracle_exists_rainbow_tree,
    oracle_first_rainbow_tree,
    oracle_rainbow_tree_within,
    oracle_trees,
)
from tests.test_graph import connected_graphs


def cycle_coloring(n, pattern):
    g = cycle_graph(n)
    colors = {}
    for i in range(n):
        e = (min(i, (i + 1) % n), max(i, (i + 1) % n))
        colors[e] = pattern[i % len(pattern)]
    return g, EdgeColoring(g, colors, max(pattern))


# ---------------------------------------------------------------------------
# Rainbow S-tree search


def test_monochromatic_c4_has_no_rainbow_pair_tree():
    g, coloring = cycle_coloring(4, [1])
    assert exists_rainbow_stree(g, coloring, [0, 2]) is None


def test_alternating_c4_connects_opposite_pair():
    g, coloring = cycle_coloring(4, [1, 2])
    witness = exists_rainbow_stree(g, coloring, [0, 2])
    assert witness is not None
    assert witness.is_valid_for(g, coloring)
    assert witness.edges == frozenset({(0, 1), (1, 2)})


def test_all_distinct_coloring_always_connects():
    g = gnp_connected_graph(8, 0.4, seed=11)
    coloring = all_distinct_coloring(g)
    for terms in itertools.combinations(range(8), 3):
        witness = exists_rainbow_stree(g, coloring, terms)
        assert witness is not None and witness.is_valid_for(g, coloring)


def test_single_terminal_trivial():
    g = cycle_graph(4)
    witness = exists_rainbow_stree(g, all_distinct_coloring(g), [2])
    assert witness is not None and witness.edges == frozenset()


def test_terminal_out_of_range_rejected():
    # the Steiner distance and the rainbow-tree search name the lowest bad vertex
    g = path_graph(3)
    coloring = all_distinct_coloring(g)
    for terminals, bad in (([0, 5], 5), ([0, 9], 9), ([7, 5, 0], 5), ([1, -1, 9], -1)):
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            steiner_distance(g, terminals)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            exists_rainbow_stree(g, coloring, terminals)


@pytest.mark.parametrize(
    "call",
    [
        color_pipeline,
        lambda g, k: color_kdom(g, range(g.n), k),
        lambda g, k: color_km1dom(g, range(g.n), k),
        steiner_diameter,
        lambda g, k: is_k_rainbow_connected(g, all_distinct_coloring(g), k),
        exact_rx_k,
        bounds_report,
    ],
    ids=["pipeline", "kdom", "km1dom", "sdiam", "verify", "exact", "report"],
)
def test_every_k_subset_question_shares_one_guard(call):
    g = cycle_graph(5)
    for k in (1, 6):
        with pytest.raises(ValueError, match=f"^k must satisfy 2 <= k <= n, got {k}$"):
            call(g, k)
    two_edges = Graph.build(4, [(0, 1), (2, 3)])
    for k in (2, 5):  # connectivity is checked first
        with pytest.raises(ValueError, match="^requires a connected graph$"):
            call(two_edges, k)


def test_budget_exhaustion_raises():
    g = complete_graph(7)
    with pytest.raises(SearchBudgetExceeded):
        exists_rainbow_stree(g, all_distinct_coloring(g), [0, 1, 2], node_budget=1)
    # one color allows one edge for two missing terminals: the root state
    # is refuted within its own node
    mono = EdgeColoring(g, {e: 1 for e in g.edges}, 1)
    assert exists_rainbow_stree(g, mono, [0, 1, 2], node_budget=1) is None


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_rainbow_tree_with_wildcards_matches_oracle(g, data):
    # the exact solver searches partial colorings: bits 0 are wildcards
    edges = g.sorted_edges()
    palette = data.draw(st.integers(1, 4), label="palette")
    colors = {e: data.draw(st.integers(0, palette), label=f"color{e}") for e in edges}
    bits = [1 << colors[e] if colors[e] else 0 for e in edges]
    # the answer must not depend on the root, terms[0]: draw any order, or
    # the exact solver's lowest degree first
    S = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1), label="S"))
    terms = data.draw(
        st.one_of(
            st.permutations(S),
            st.just(sorted(S, key=lambda v: (g.degree(v), v))),
        ),
        label="terminal order",
    )
    c = data.draw(st.integers(len(terms) - 1, g.m), label="c")
    inc = verify_module._incidence(g.n, edges)
    tree = verify_module._rainbow_tree(inc, bits, terms, c)
    assert (tree is not None) == oracle_rainbow_tree_within(g, colors, terms, c)
    if tree is not None:
        assert len(tree) <= c
        assert is_tree_witness(g, frozenset(edges[i] for i in tree), terms)
        colored = [bits[i] for i in tree if bits[i]]
        assert len(set(colored)) == len(colored)


class _CountingBudget:
    def __init__(self):
        self.nodes = 0

    def tick(self):
        self.nodes += 1


_G8 = gnp_connected_graph(8, 0.5, seed=3)


@pytest.mark.parametrize(
    "g, terms, seed, palette, wildcards, max_edges, found, states",
    [
        # two terminals missing, one edge allowed: refuted at the root
        (complete_graph(7), [0, 1, 2], 0, 1, 0.0, 1, None, 1),
        (_G8, [0, 3, 5, 7], 23, 4, 0.0, 4, None, 7),
        (_G8, [0, 3, 5, 7], 10, 4, 0.0, 4, [2, 3, 10, 14], 14),
        (_G8, [0, 3, 5, 7], 3, 3, 0.3, 4, [0, 2, 6, 15], 5),
    ],
    ids=["one-color", "refuted", "found", "partial"],
)
def test_rainbow_tree_expands_pinned_states(
    g, terms, seed, palette, wildcards, max_edges, found, states
):
    # pinned so that a weaker prune shows up as a larger count, not only as
    # wall time. With a walk that bounds only the distance to each terminal
    # by the edges left, in place of the slack walk and its tight children,
    # they were 1, 11, 26 and 8; without the terminal-count bound as well,
    # 7, 31, 37 and 23
    rng = random.Random(seed)
    bits = [
        0 if rng.random() < wildcards else 1 << rng.randint(1, palette)
        for _ in range(g.m)
    ]
    inc = verify_module._incidence(g.n, g.sorted_edges())
    budget = _CountingBudget()
    assert verify_module._rainbow_tree(inc, bits, terms, max_edges, budget) == found
    assert budget.nodes == states


def _count_searches(monkeypatch) -> _CountingBudget:
    """Replace the exact solver's ``_rainbow_tree`` by one that counts the
    states of every search in the returned budget."""
    budget = _CountingBudget()
    search = verify_module._rainbow_tree

    def counted(inc, bits, terms, max_edges):
        return search(inc, bits, terms, max_edges, budget)

    monkeypatch.setattr(verify_module, "_rainbow_tree", counted)
    return budget


def test_exact_solver_expands_pinned_search_states(monkeypatch):
    # below the tree cap the pool holds every tree and the solver searches
    # nothing; the states are pinned on the search path, forced by a cap of
    # 0, so that a weaker root rule or pool shows up as a larger count, not
    # only as wall time. The next edge is read off the pool, so the nodes
    # differ between the two. With the edges colored in index order, the
    # nodes were 8,352 at either cap and the states 50,376; before that,
    # with every search grown from the lowest terminal, 124,604, and with a
    # tree held per subset and a found tree kept only until it broke, 63,172
    g = gnp_connected_graph(9, 0.4, seed=5)
    budget = _count_searches(monkeypatch)
    result = exact_rx_k(g, 3)
    assert result.value == 5 and result.nodes == 198
    assert budget.nodes == 0
    monkeypatch.setattr(verify_module, "_TREE_CAP", 0)
    result = exact_rx_k(g, 3)
    assert result.value == 5 and result.nodes == 1379
    assert budget.nodes == 9034


def _connected_gnm(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        g = Graph(n, rng.sample(pairs, m))
        if g.is_connected:
            return g


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_exact_prunes_desk_graphs_by_tree_supports(monkeypatch, seed, k):
    # the exact benchmark's shape: every level stays under the tree cap
    def refuse(*args):
        raise AssertionError("searched below the tree cap")

    monkeypatch.setattr(verify_module, "_rainbow_tree", refuse)
    result = exact_rx_k(_connected_gnm(8, 14, seed), k, node_budget=200)
    assert result.nodes > 0


def test_exact_searches_above_the_tree_cap(monkeypatch):
    # K8 has 134,456 trees of 6 edges alone, so level 6 searches; the
    # states are pinned so that a weaker pool or edge order shows up as a
    # larger count. With the edges colored in index order, 1,358 nodes and
    # 43,469 states; before that, with a tree held per subset and a found
    # tree kept only until it broke, 44,573 states
    budget = _count_searches(monkeypatch)
    result = exact_rx_k(complete_graph(8), 7)
    assert (result.status, result.value, result.nodes) == ("exact", 6, 263)
    assert budget.nodes == 7522


@pytest.mark.parametrize(
    "g, k, value, nodes",
    [
        (complete_graph(9), 6, 5, 531),
        (gnp_connected_graph(9, 0.7, seed=1), 6, 6, 1543),
    ],
    ids=["K9-k6", "gnp-9-0.7-seed-1-k6"],
)
def test_exact_settles_dense_nine_vertex_graphs_above_the_tree_cap(g, k, value, nodes):
    # both levels pass the tree cap; with the edges colored in index order
    # neither settled in 20 s. The deadline keeps a regression from running
    # away: it yields unknown, and the assertion fails
    result = exact_rx_k(g, k, time_budget_s=5.0)
    assert (result.status, result.value, result.nodes) == ("exact", value, nodes)
    assert is_k_rainbow_connected(g, result.coloring, k).ok


@pytest.mark.parametrize(
    "cap", [verify_module._TREE_CAP, 0], ids=["default-cap", "cap-0"]
)
def test_tree_supports_refuse_a_level_below_the_steiner_diameter(monkeypatch, cap):
    # in P5 the 3-set {0, 2, 4} needs 4 edges; exact_rx_k never asks for
    # fewer than the Steiner diameter. Above the cap the pool's first
    # search for that set finds no tree
    monkeypatch.setattr(verify_module, "_TREE_CAP", cap)
    budget = verify_module._Budget(None, None)
    with pytest.raises(InvariantViolation, match="no tree within the level"):
        verify_module._search_k_rainbow_coloring(path_graph(5), 3, 2, budget)


def test_tree_supports_count_every_tree_up_to_the_cap(monkeypatch):
    # C5 has 5 trees of one edge and 5 of two; at k = 3 only the second
    # are kept, and each edge lies on two of them
    inc = verify_module._incidence(5, cycle_graph(5).sorted_edges())
    monkeypatch.setattr(verify_module, "_TREE_CAP", 10)
    through = verify_module._tree_supports(inc, 3, 2)
    assert [trees.bit_count() for trees in through] == [2] * 5
    assert functools.reduce(operator.or_, through) == (1 << 5) - 1
    monkeypatch.setattr(verify_module, "_TREE_CAP", 9)
    assert verify_module._tree_supports(inc, 3, 2) is None


def _supported_trees(g: Graph, k: int, c: int) -> list[tuple[int, ...]] | None:
    """The trees behind ``_tree_supports``' columns, as sorted edge indices,
    one entry per tree bit; None past the cap."""
    through = verify_module._tree_supports(
        verify_module._incidence(g.n, g.sorted_edges()), k, c
    )
    if through is None:
        return None
    count = max(trees.bit_length() for trees in through)  # every tree has an edge
    return [
        tuple(i for i, trees in enumerate(through) if trees >> t & 1)
        for t in range(count)
    ]


_TREE_GRAPHS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "C6": cycle_graph(6),
    "P6": path_graph(6),
    **{
        f"gnm-{n}-{m}-seed-{seed}": _connected_gnm(n, m, seed)
        for n, m in ((5, 6), (6, 8), (7, 9), (7, 11))
        for seed in range(2)
    },
}


#: stars with more edges than one 64-edge word holds: the bitsets are read
#: from the kept trees packed into such words
_STARS = {f"K1,{t}": complete_bipartite_graph(1, t) for t in (63, 64, 65, 129)}


@pytest.mark.parametrize(
    "g, top",
    [(g, g.n - 1) for g in _TREE_GRAPHS.values()] + [(g, 2) for g in _STARS.values()],
    ids=[*_TREE_GRAPHS, *_STARS],
)
def test_tree_supports_grow_each_tree_once(g, top):
    # each tree of at most c <= top edges and at least k vertices holds
    # exactly one bit, whatever the order the enumeration grows the trees
    # in: the oracle lists each tree once, so equal sorted lists also rule
    # out repeats. The solver never asks for c below k - 1
    ends = g.sorted_edges()
    by_size = [[]] + [oracle_trees(ends, size) for size in range(1, top + 1)]
    for k in range(2, top + 2):
        for c in range(k - 1, top + 1):
            expected = [t for size in range(k - 1, c + 1) for t in by_size[size]]
            assert sorted(_supported_trees(g, k, c)) == sorted(expected)


@pytest.mark.parametrize(
    "name, c", [("K5", 3), ("gnm-7-11-seed-0", 4), ("gnm-7-11-seed-1", 4)]
)
def test_tree_supports_pass_the_cap_at_one_tree_more(monkeypatch, name, c):
    # the cap counts every tree of 1..c edges, kept or not, so the level
    # takes the complete pool exactly when they number at most the cap
    g = _TREE_GRAPHS[name]
    ends = g.sorted_edges()
    total = sum(len(oracle_trees(ends, size)) for size in range(1, c + 1))
    monkeypatch.setattr(verify_module, "_TREE_CAP", total)
    assert _supported_trees(g, 2, c) is not None
    monkeypatch.setattr(verify_module, "_TREE_CAP", total - 1)
    assert _supported_trees(g, 2, c) is None


def test_slack_walk_refutes_a_far_terminal_at_the_root():
    # edges 0-1, 0-2, 2-3, 3-4, all colors distinct, terminals 0, 1 and 4.
    # With 3 edges allowed, each terminal lies within 3 edges of the root,
    # so a bound on distance alone cannot refute the root; but the path to 4
    # enters two non-terminals, and the slack is 3 - 2 = 1
    g = Graph.build(5, [(0, 1), (0, 2), (2, 3), (3, 4)])
    inc = verify_module._incidence(g.n, g.sorted_edges())
    bits = [2, 4, 8, 16]
    budget = _CountingBudget()
    assert verify_module._rainbow_tree(inc, bits, [0, 1, 4], 3, budget) is None
    assert budget.nodes == 1
    budget = _CountingBudget()
    assert verify_module._rainbow_tree(inc, bits, [0, 1, 4], 4, budget) == [0, 1, 2, 3]
    assert budget.nodes == 4


@settings(max_examples=300, deadline=None)
@given(connected_graphs(max_n=9), st.data())
def test_rainbow_tree_is_the_first_tree_of_a_plain_search(g, data):
    # the memo and both prunes drop only states that cannot finish, so the
    # search returns the tree that a search without them finds first
    edges = g.sorted_edges()
    palette = data.draw(st.integers(1, 5), label="palette")
    bits = [
        1 << c if c else 0
        for c in (data.draw(st.integers(0, palette), label=f"color{e}") for e in edges)
    ]
    terms = data.draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, unique=True), label="S"
    )
    max_edges = data.draw(st.integers(0, 6), label="allowance")
    inc = verify_module._incidence(g.n, edges)
    assert verify_module._rainbow_tree(inc, bits, terms, max_edges) == (
        oracle_first_rainbow_tree(g.n, list(edges), bits, terms, max_edges)
    )


# ---------------------------------------------------------------------------
# Full verification


def test_alternating_c4_is_2_rainbow():
    g, coloring = cycle_coloring(4, [1, 2])
    verdict = is_k_rainbow_connected(g, coloring, 2)
    assert verdict.ok and verdict.subsets_checked == 6


def test_injective_tree_is_k_rainbow_for_all_k():
    g = path_graph(6)
    coloring = all_distinct_coloring(g)
    for k in range(2, 7):
        assert is_k_rainbow_connected(g, coloring, k).ok


def test_monochromatic_triangle_fails_with_first_subset():
    g = complete_graph(3)
    coloring = EdgeColoring(g, {e: 1 for e in g.edges}, 1)
    verdict = is_k_rainbow_connected(g, coloring, 3)
    assert not verdict.ok and verdict.failing_subset == (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=7), st.data())
def test_color_permutation_invariance(g, data):
    c = data.draw(st.integers(1, max(1, g.m)))
    colors = {
        e: data.draw(st.integers(1, c), label=f"color{e}") for e in g.sorted_edges()
    }
    coloring = EdgeColoring(g, colors, c)
    perm = data.draw(st.permutations(list(range(1, c + 1))))
    remap = dict(zip(range(1, c + 1), perm))
    permuted = EdgeColoring(g, {e: remap[col] for e, col in colors.items()}, c)
    k = data.draw(st.integers(2, g.n))
    assert is_k_rainbow_connected(g, coloring, k).ok == (
        is_k_rainbow_connected(g, permuted, k).ok
    )


def test_verdict_agrees_with_spanning_tree_oracle_small_fuzz():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(4, 7)
        g = gnp_connected_graph(n, rng.choice([0.35, 0.5]), seed=rng.randint(0, 10**6))
        c = rng.randint(2, 5)
        colors = {e: rng.randint(1, c) for e in g.sorted_edges()}
        coloring = EdgeColoring(g, colors, c)
        size = rng.randint(2, min(4, n))
        terms = rng.sample(range(n), size)
        witness = exists_rainbow_stree(g, coloring, terms)
        if witness is not None:
            assert witness.is_valid_for(g, coloring)
        assert (witness is not None) == oracle_exists_rainbow_tree(g, coloring, terms)


def _oracle_verdict(g, coloring, k):
    """(ok, failing_subset, subsets_checked) from the oracle alone, one
    subset at a time in lexicographic order."""
    checked = 0
    for subset in itertools.combinations(range(g.n), k):
        checked += 1
        if not oracle_exists_rainbow_tree(g, coloring, subset):
            return False, subset, checked
    return True, None, checked


def _random_colors(rng, n, k):
    g = gnp_connected_graph(n, rng.choice((0.35, 0.5, 0.7)), seed=rng.randrange(10**6))
    c = rng.randint(2, n - 1)
    return g, {e: rng.randint(1, c) for e in g.sorted_edges()}, c


def _pendant_colors(rng, n, k):
    # two pendant vertices with the top ids hang off one hub by edges of one
    # color, the rest is injective: exactly the subsets holding both pendants
    # fail, so the first failure comes late
    core = gnp_connected_graph(n - 2, 0.3, seed=rng.randrange(10**6))
    hub = rng.randrange(n - 2)
    g = Graph.build(n, list(core.edges) + [(hub, n - 2), (hub, n - 1)])
    colors = {e: j + 2 for j, e in enumerate(core.sorted_edges())}
    colors[(hub, n - 2)] = colors[(hub, n - 1)] = 1
    return g, colors, core.m + 1


def _leg_colors(rng, n, k):
    """The constructions' shape: a connected core whose BFS tree has colors
    of its own, each vertex outside it with up to k legs into it colored
    1, 2, ... in order, and every other edge in a random leg color. The core
    contracts to one vertex that the legs join by parallel edges."""
    core = rng.sample(range(n), rng.randint(1, n - 1))
    outside = [v for v in range(n) if v not in core]
    pairs = [(core[rng.randrange(i)], core[i]) for i in range(1, len(core))]
    pairs += [p for p in itertools.combinations(core, 2) if rng.random() < 0.3]
    legs = {}
    for v in outside:
        feet = rng.sample(core, min(len(core), rng.randint(1, k)))
        legs.update(((min(v, w), max(v, w)), i + 1) for i, w in enumerate(feet))
    pairs += [p for p in itertools.combinations(outside, 2) if rng.random() < 0.3]
    g = Graph.build(n, pairs + list(legs))
    tree = bfs_tree_edges(g, core)
    colors = {e: rng.randint(1, k) for e in g.sorted_edges()}
    colors.update(legs)
    colors.update((e, k + 1 + j) for j, e in enumerate(sorted(tree)))
    return g, colors, k + len(tree)


def _leg_colors_tree_edge_recolored(rng, n, k):
    """As ``_leg_colors`` with one core-tree edge recolored to a leg color,
    so the core contracts to two vertices."""
    g, colors, c = _leg_colors(rng, n, k)
    tree = sorted(e for e, col in colors.items() if col > k)
    if tree:
        colors[rng.choice(tree)] = rng.randint(1, k)
    return g, colors, c


def _distinct_colors(rng, n, k):
    """Every edge its own color: the graph contracts to one vertex and the
    edge allowance is 0."""
    g = gnp_connected_graph(n, rng.choice((0.35, 0.5, 0.7)), seed=rng.randrange(10**6))
    palette = list(range(1, g.m + 1))
    rng.shuffle(palette)
    return g, dict(zip(g.sorted_edges(), palette)), g.m


def _verdict_cases(count, seed, kinds=(_random_colors, _random_colors, _pendant_colors)):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n))
        g, colors, c = kinds[i % len(kinds)](rng, n, k)
        yield g, EdgeColoring(g, colors, c), k


def test_verdict_with_cover_matches_per_subset_oracle():
    # a subset inside an earlier tree is skipped; that must never skip a
    # failure or move the first one
    late = 0
    for g, coloring, k in _verdict_cases(300, seed=11):
        verdict = is_k_rainbow_connected(g, coloring, k)
        expected = _oracle_verdict(g, coloring, k)
        assert (verdict.ok, verdict.failing_subset, verdict.subsets_checked) == expected
        assert 1 <= verdict.searches <= verdict.subsets_checked
        late += not verdict.ok and verdict.failing_subset[-2:] == (g.n - 2, g.n - 1)
    assert late >= 50


def test_contracted_verdict_matches_per_subset_oracle():
    # the verifier searches the graph with its unique-color edges contracted;
    # leg colorings keep parallel edges between contracted vertices, which
    # must all stay, and all-distinct colorings contract to one vertex
    failing = 0
    kinds = (_leg_colors, _leg_colors_tree_edge_recolored, _distinct_colors)
    for g, coloring, k in _verdict_cases(150, seed=12, kinds=kinds):
        verdict = is_k_rainbow_connected(g, coloring, k)
        expected = _oracle_verdict(g, coloring, k)
        assert (verdict.ok, verdict.failing_subset, verdict.subsets_checked) == expected
        assert 1 <= verdict.searches <= verdict.subsets_checked
        failing += not verdict.ok
    assert 20 <= failing <= 100


#: sha256 over (ok, failing_subset, subsets_checked, searches) per case of
#: the corpus below, recorded before the cover check became a flat loop.
PINNED_VERDICTS = "93764d7e9953f6d6e818b3fc0b62f005861b62496d4fa16f7979d8f1589231d9"


def test_pinned_verdicts():
    # searches is pinned too: it depends on which subsets the covers skip
    kinds = (_random_colors, _leg_colors, _leg_colors_tree_edge_recolored, _distinct_colors)
    items = []
    for g, coloring, k in _verdict_cases(400, seed=13, kinds=kinds):
        v = is_k_rainbow_connected(g, coloring, k)
        items.append((v.ok, v.failing_subset, v.subsets_checked, v.searches))
    assert sum(not ok for ok, *_ in items) == 164
    digest = hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()
    assert digest == PINNED_VERDICTS


def test_constructions_verify_at_thirty_vertices():
    # each core contracts to one vertex, so each check takes under a second
    # (before contraction each ran for more than 30 s). At n = 40 the checks
    # find hundreds to thousands of trees, the regime where the cover test,
    # k ANDs of per-vertex tree bitsets, skips the most searches
    cases = ((30, 4060, [50, 287, 728]), (40, 9880, [800, 2927, 2186]))
    for n, checked, searches in cases:
        g = gnp_connected_graph(n, 0.3, seed=1)
        colorings = [
            color_pipeline(g, 3)[0],
            color_kdom(g, greedy_connected_k_dominating(g, 3), 3),
            color_km1dom(g, greedy_connected_k_dominating(g, 2), 3)[0],
        ]
        verdicts = [is_k_rainbow_connected(g, c, 3) for c in colorings]
        assert all(v.ok and v.subsets_checked == checked for v in verdicts)
        assert [v.searches for v in verdicts] == searches


def test_km1dom_at_thirty_vertices_counts_searches():
    # the slowest construction check seen at n = 30: 728 searches, which
    # took 0.6-0.8 s before the search refuted states missing more
    # terminals than edges left, and about 0.3 s since
    g = gnp_connected_graph(30, 0.3, seed=1)
    coloring, _ = color_km1dom(g, greedy_connected_k_dominating(g, 2), 3)
    verdict = is_k_rainbow_connected(g, coloring, 3)
    assert verdict.ok and verdict.subsets_checked == 4060
    assert verdict.searches == 728


def test_verdict_counts_searches():
    g = gnp_connected_graph(20, 0.3, seed=1)
    coloring, _ = color_pipeline(g, 3)
    verdict = is_k_rainbow_connected(g, coloring, 3)
    assert verdict.ok and verdict.subsets_checked == 1140
    assert verdict.searches == 4


def test_rainbow_tree_search_leaves_no_garbage():
    # the search's nested function refers to itself; unless that cycle is
    # broken, every memo waits for the cyclic collector
    g = cycle_graph(6)
    inc = verify_module._incidence(g.n, g.sorted_edges())
    bits = [1 << c for c in range(1, g.m + 1)]
    gc.collect()
    gc.disable()
    try:
        assert verify_module._rainbow_tree(inc, bits, [0, 3], g.m) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "run",
    [
        lambda: exact_rx_k(gnp_connected_graph(8, 0.45, seed=3), 3, node_budget=200),
        # every color unique, so each subset lies in one contracted vertex
        lambda: is_k_rainbow_connected(
            cycle_graph(6), all_distinct_coloring(cycle_graph(6)), 3
        ),
        lambda: bounds_report(gnp_connected_graph(8, 0.45, seed=3), 3),
    ],
    ids=["exact", "verify-C6-distinct", "report"],
)
def test_solver_and_verifier_leave_no_garbage(run):
    # a nested function that refers to itself holds its closure until the
    # cyclic collector runs, unless the function is deleted when it ends
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Exact solver


def test_exact_trees_need_all_colors():
    star6 = Graph.build(6, [(0, i) for i in range(1, 6)])
    for g in (path_graph(6), star6):
        for k in (2, 3, g.n):
            result = exact_rx_k(g, k)
            assert result.known and result.value == g.n - 1
            assert is_k_rainbow_connected(g, result.coloring, k).ok


def test_exact_triangle_three_terminals():
    result = exact_rx_k(complete_graph(3), 3)
    assert result.value == 2


def test_exact_c5_three_terminals():
    # frozen from the canonical full-enumeration oracle
    result = exact_rx_k(cycle_graph(5), 3)
    assert result.value == 3
    assert oracle_exact_rx(cycle_graph(5), 3) == 3


def test_exact_pinched_bounds_skip_search():
    result = exact_rx_k(path_graph(5), 3)
    assert result.value == 4 and result.nodes == 0


def test_exact_budget_returns_unknown_bounds():
    g = complete_graph(7)
    result = exact_rx_k(g, 3, node_budget=3)
    assert result.status == "unknown"
    assert result.value is None
    assert result.lower <= result.upper
    assert result.lower >= 2


def test_exact_budget_reports_exact_node_count():
    assert exact_rx_k(complete_graph(7), 3, node_budget=3).nodes == 3


def test_stree_budget_counts_only_explored_nodes():
    g = path_graph(3)
    coloring = all_distinct_coloring(g)
    # the search expands {0} and {0, 1}, then reaches terminal 2
    assert exists_rainbow_stree(g, coloring, [0, 2], node_budget=2) is not None
    with pytest.raises(SearchBudgetExceeded):
        exists_rainbow_stree(g, coloring, [0, 2], node_budget=1)


def test_verifier_budget_is_per_search_and_raises_when_one_spends_it():
    # colours 1, 2, 3, 1, 2, 3 around C6: every colour repeats, so no edge
    # contracts away, and six searches of at most 4 nodes each cover the pairs
    g, coloring = cycle_coloring(6, [1, 2, 3])
    verdict = is_k_rainbow_connected(g, coloring, 2, node_budget=4)
    assert verdict.ok and verdict.searches == 6
    with pytest.raises(SearchBudgetExceeded, match="node budget"):
        is_k_rainbow_connected(g, coloring, 2, node_budget=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, c: exact_rx_k(g, 2, node_budget=-5),
        lambda g, c: exact_rx_k(g, 2, time_budget_s=-1.0),
        lambda g, c: is_k_rainbow_connected(g, c, 2, node_budget=-1),
        lambda g, c: exists_rainbow_stree(g, c, [0, 3], node_budget=-1),
    ],
    ids=["exact-nodes", "exact-time", "verify", "stree"],
)
def test_negative_budgets_are_rejected(call):
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        call(g, all_distinct_coloring(g))


def test_exact_checks_its_budget_before_the_lower_bound(monkeypatch):
    def refuse(g, k):
        raise AssertionError("the Steiner lower bound ran before the budget check")

    monkeypatch.setattr(verify_module, "steiner_diameter", refuse)
    with pytest.raises(ValueError, match="^time budget must be >= 0, got -1$"):
        exact_rx_k(path_graph(13), 6, time_budget_s=-1)


def test_exact_deadline_covers_the_lower_bound(monkeypatch):
    # a fake clock that the lower bound moves past the deadline: the search
    # must stop at its first deadline check (every 256 nodes), not run on.
    # The instance needs more than 256 nodes to settle
    g = _connected_gnm(8, 14, seed=1)
    assert exact_rx_k(g, 4, node_budget=1000).nodes > 256
    clock = [0.0]
    steiner_diameter_of = verify_module.steiner_diameter

    def slow_lower_bound(g, k):
        clock[0] += 10.0
        return steiner_diameter_of(g, k)

    fake_time = SimpleNamespace(monotonic=lambda: clock[0])
    monkeypatch.setattr(verify_module, "time", fake_time)
    monkeypatch.setattr(verify_module, "steiner_diameter", slow_lower_bound)
    result = exact_rx_k(g, 4, node_budget=1000, time_budget_s=1.0)
    assert (result.status, result.nodes) == ("unknown", 256)


def test_report_rejects_negative_timeout_up_front():
    # above desk scale, so the exact solver that holds the budget never runs
    g = gnp_connected_graph(30, 0.3, seed=2)
    with pytest.raises(ValueError, match="^time budget must be >= 0, got -1.0$"):
        bounds_report(g, 2, time_budget_s=-1.0)


def test_exact_rejects_above_desk_scale():
    g = gnp_connected_graph(12, 0.5, seed=1)
    with pytest.raises(ValueError, match="desk scale"):
        exact_rx_k(g, 2)
    assert exact_rx_k(g, 2, force=True, node_budget=10).status == "unknown"


def test_exact_monotone_in_k():
    g = gnp_connected_graph(6, 0.5, seed=9)
    values = [exact_rx_k(g, k).value for k in range(2, 7)]
    assert values == sorted(values)


def test_exact_max_colors_cap():
    g = cycle_graph(6)  # rx_2 = 3, below the trivial upper bound 5
    result = exact_rx_k(g, 2, max_colors=2)
    assert result.status == "unknown"
    assert result.lower == 3 and result.upper == 5
    assert exact_rx_k(g, 2, max_colors=3).value == 3


@pytest.mark.parametrize(
    "max_colors, expected",
    [
        (1, ("unknown", None, 2, 4, 0)),
        (2, ("unknown", None, 3, 4, 5)),
        # levels 2 and 3 refuted: nothing below n - 1 = 4 is left, so the
        # cap at 3 still settles the value
        (3, ("exact", 4, 4, 4, 14)),
        (4, ("exact", 4, 4, 4, 14)),
    ],
)
def test_exact_refuting_every_level_below_n_minus_1_settles_it(max_colors, expected):
    result = exact_rx_k(complete_bipartite_graph(1, 4), 2, max_colors=max_colors)
    assert (result.status, result.value, result.lower, result.upper, result.nodes) == expected
    if result.known:
        assert result.coloring.color_count == 4


def test_exact_rejects_negative_max_colors():
    with pytest.raises(ValueError, match="^max colors must be >= 0, got -5$"):
        exact_rx_k(cycle_graph(6), 2, max_colors=-5)


def test_exact_witness_verifies():
    for seed in (1, 4, 7):
        g = gnp_connected_graph(6, 0.45, seed=seed)
        result = exact_rx_k(g, 3)
        assert result.known
        assert result.coloring.color_count == result.value
        assert is_k_rainbow_connected(g, result.coloring, 3).ok


def test_exact_sandwich():
    for seed in (2, 5):
        g = gnp_connected_graph(7, 0.4, seed=seed)
        for k in (2, 3):
            result = exact_rx_k(g, k)
            assert max(k - 1, steiner_diameter(g, k)) <= result.value <= g.n - 1


@st.composite
def _few_edge_graphs(draw):
    """Connected graphs with n <= 7 of a random spanning tree and at most
    two more edges: few enough edges for the oracle's full enumeration of
    colorings (at most about 0.3 s per query at n = 7)."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    if others:
        edges |= draw(st.sets(st.sampled_from(others), max_size=2))
    return Graph.build(n, edges)


@settings(max_examples=100, deadline=None)
@given(g=_few_edge_graphs(), data=st.data())
def test_exact_agrees_with_the_oracle_at_either_cap(g, data):
    # the next edge is read off the tree pool, so the search differs with
    # the cap; the value must not, and must be the oracle's
    k = data.draw(st.integers(2, g.n), label="k")
    want = oracle_exact_rx(g, k)
    assert exact_rx_k(g, k).value == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "_TREE_CAP", 0)
        assert exact_rx_k(g, k).value == want


# ---------------------------------------------------------------------------
# Formula and report


def test_formula_spot_values():
    assert min_degree_upper_bound(100, 30, 2) == Fraction(4000, 28) - 4
    assert min_degree_upper_bound(50, 20, 3) == Fraction(3000, 18) - 5
    assert min_degree_upper_bound(100, 6, 4) is None
    assert min_degree_upper_bound(100, 6, 3) == Fraction(10 * 100 * 3 * 2, 4) - 5


def test_formula_rejects_bad_args():
    with pytest.raises(ValueError):
        min_degree_upper_bound(10, 3, 1)


def test_report_pinched_path():
    report = bounds_report(path_graph(5), 3)
    assert report.exact == 4
    lower = max(e.value for e in report.lower if e.value is not None)
    upper = min(e.value for e in report.upper if e.value is not None)
    assert lower == 4 and upper == 4


def test_report_schema_fields():
    report = bounds_report(complete_graph(5), 2)
    payload = report.to_json_dict()
    assert set(payload.keys()) == {
        "graph",
        "k",
        "lower",
        "upper",
        "exact",
        "verified",
        "runtime_ms",
    }
    assert set(payload["graph"].keys()) == {"n", "m", "delta"}
    for entry in payload["lower"] + payload["upper"]:
        assert set(entry.keys()) == {"value", "source"}
    sources = [e["source"] for e in payload["upper"]]
    assert any("20n/delta" in s for s in sources)
    assert any("3n/(delta+1)+3" in s for s in sources)


def test_report_sandwich_invariant():
    for seed in (3, 8):
        g = gnp_connected_graph(8, 0.5, seed=seed)
        for k in (2, 3):
            report = bounds_report(g, k)
            lower = max(e.value for e in report.lower if e.value is not None)
            upper = min(e.value for e in report.upper if e.value is not None)
            assert lower <= upper
            if report.exact is not None:
                assert lower <= report.exact <= upper


def test_report_marks_inapplicable_formula():
    report = bounds_report(cycle_graph(8), 2)  # delta = 2 gives denominator 0
    inapplicable = [
        e for e in report.upper if e.value is None and "not applicable" in e.source
    ]
    assert inapplicable


def test_report_rejects_disconnected():
    with pytest.raises(ValueError):
        bounds_report(Graph.build(4, [(0, 1), (2, 3)]), 2)


def _steiner_entry(report):
    return next(e for e in report.lower if e.source.startswith("steiner diameter"))


def test_report_takes_the_steiner_diameter_by_its_cheaper_table(monkeypatch):
    # C(17, 10) = 19,448 subsets passed the old subset gate and then took
    # 28 s, one steiner_distance each; the removal table is shared by all
    def refuse(*args):
        raise AssertionError("the Steiner diameter solved a subset on its own")

    monkeypatch.setattr(graph_module, "steiner_distance", refuse)
    entry = _steiner_entry(bounds_report(cycle_graph(17), 10))
    assert (entry.source, entry.value) == ("steiner diameter", 15)


def test_report_gates_the_steiner_diameter_on_its_estimated_steps():
    # C(30, 4) = 27,405 subsets failed the old subset gate, but the rows of
    # the sets of at most 3 vertices are about a million steps
    g = gnp_connected_graph(30, 0.3, seed=1)
    assert min(steiner_diameter_steps(30, g.m, 4)) <= verify_module._SDIAM_STEP_LIMIT
    entry = _steiner_entry(bounds_report(g, 4))
    assert (entry.source, entry.value) == ("steiner diameter", 6)
    # k = 15 of 40 vertices is past the limit on either side of k
    g = gnp_connected_graph(40, 0.3, seed=1)
    assert min(steiner_diameter_steps(40, g.m, 15)) > verify_module._SDIAM_STEP_LIMIT
    assert _steiner_entry(bounds_report(g, 15)).value is None


@pytest.mark.parametrize("n, m", [(17, 16), (9, 36)])
def test_desk_scale_passes_the_steiner_step_gate(n, m):
    # the largest desk shapes (m <= 16 connects at most 17 vertices; K9):
    # the report's sweep starts from a computed Steiner entry at every k
    for k in range(2, n + 1):
        assert min(steiner_diameter_steps(n, m, k)) <= verify_module._SDIAM_STEP_LIMIT


def _refutations(report):
    return [
        e.value
        for e in report.lower
        if e.source == "exhaustive refutation (partial search)"
    ]


@pytest.mark.parametrize("budget, entries", [(20, []), (40, [6])])
def test_report_lists_a_refutation_only_for_a_refuted_level(monkeypatch, budget, entries):
    # C8 at k = 3: Steiner diameter 5, rx 6. Twenty nodes refute nothing, so
    # the Steiner diameter must not come back as a refutation; forty refute 5
    monkeypatch.setattr(verify_module, "_EXACT_NODE_BUDGET", budget)
    report = bounds_report(cycle_graph(8), 3)
    assert report.exact is None
    assert _refutations(report) == entries


@pytest.mark.parametrize(
    "g, k",
    [(path_graph(5), 3), (cycle_graph(8), 3), (_connected_gnm(8, 14, seed=1), 4)],
    ids=["P5", "C8", "gnm-8-14"],
)
def test_report_computes_the_steiner_diameter_once(monkeypatch, g, k):
    calls = []
    steiner_diameter_of = verify_module.steiner_diameter

    def counted(g, k):
        calls.append(k)
        return steiner_diameter_of(g, k)

    monkeypatch.setattr(verify_module, "steiner_diameter", counted)
    assert bounds_report(g, k).exact is not None
    assert calls == [k]


def test_report_sweep_agrees_with_exact(monkeypatch):
    # the report's sweep starts from its own lower entries; under the same
    # node budget it must settle what exact settles, and list a refutation
    # exactly when exact's lower bound rose above its start
    graphs = [_connected_gnm(8, 14, seed) for seed in range(3)]
    graphs += [cycle_graph(8), complete_bipartite_graph(2, 7)]
    unsettled = set()
    for g, k, budget in itertools.product(graphs, (2, 3, 4), (20, 60, 400, 3000)):
        monkeypatch.setattr(verify_module, "_EXACT_NODE_BUDGET", budget)
        report = bounds_report(g, k)
        result = exact_rx_k(g, k, node_budget=budget)
        assert report.exact == result.value
        start = max(k - 1, steiner_diameter(g, k))
        refuted = not result.known and result.lower > start
        assert _refutations(report) == ([result.lower] if refuted else [])
        if not result.known:
            unsettled.add(refuted)
    assert unsettled == {True, False}  # unsettled runs with and without a refutation


def test_report_large_graph_formula_cross_check():
    g = gnp_connected_graph(100, 0.32, seed=5)
    assert g.min_degree == 20
    report = bounds_report(g, 2)
    formula_entries = [
        e for e in report.upper if e.source == "min-degree decomposition formula"
    ]
    assert formula_entries[0].value == Fraction(10 * 100 * 2 * 2, 20 - 4 + 2) - 2 - 2
    references = [e for e in report.upper if "pairwise reference" in e.source]
    assert {e.value for e in references} == {
        Fraction(20 * 100, 20),
        Fraction(3 * 100, 21) + 3,
    }


def test_k_rainbow_implies_rainbow_trees_for_smaller_subsets():
    # a subtree of a witness pruned to its leaves in S' is a rainbow S'-tree,
    # so a k-rainbow coloring serves every subset of size 2..k
    from rainbowindex import color_pipeline

    g = gnp_connected_graph(8, 0.45, seed=21)
    coloring, _ = color_pipeline(g, 4)
    assert is_k_rainbow_connected(g, coloring, 4).ok
    for size in (2, 3):
        for terms in itertools.combinations(range(g.n), size):
            assert exists_rainbow_stree(g, coloring, terms) is not None


def test_spanning_tree_coloring_realizes_trivial_bound():
    g = gnp_connected_graph(9, 0.4, seed=3)
    coloring = spanning_tree_coloring(g)
    assert coloring.color_count == 8
    for k in (2, 4):
        assert is_k_rainbow_connected(g, coloring, k).ok


# ---------------------------------------------------------------------------
# Tree-witness validators

# A triangle 0-1-2 with a tail 2-3-4; edges 01 and 12 share color 1.
WITNESS_GRAPH = Graph.build(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
WITNESS_COLORING = EdgeColoring(
    WITNESS_GRAPH, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 3, (3, 4): 4}, 4
)


@pytest.mark.parametrize(
    "edges, terminals, is_tree, is_rainbow",
    [
        pytest.param({(1, 2), (2, 3), (3, 4)}, {1, 4}, True, True, id="valid"),
        pytest.param(set(), {3}, True, True, id="lone-terminal"),
        pytest.param({(0, 1), (1, 2), (0, 2)}, {0, 2}, False, False, id="cycle"),
        pytest.param({(0, 1), (3, 4)}, {0, 4}, False, False, id="disconnected-forest"),
        # as many edges as a tree on {0, .., 4} needs, but not connected
        pytest.param(
            {(0, 1), (1, 2), (0, 2), (3, 4)}, {0, 4}, False, False,
            id="cycle-beside-an-edge",
        ),
        pytest.param({(2, 3), (3, 4)}, {0, 4}, False, False, id="missing-terminal"),
        pytest.param(
            {(2, 3), (3, 4), (0, 4)}, {0, 2}, False, False, id="foreign-edge"
        ),
        pytest.param({(0, 1), (1, 2)}, {0, 2}, True, False, id="repeated-color"),
    ],
)
def test_witness_validators(edges, terminals, is_tree, is_rainbow):
    witness = TreeWitness(frozenset(edges), frozenset(terminals))
    assert witness.is_valid_for(WITNESS_GRAPH) is is_tree
    assert witness.is_valid_for(WITNESS_GRAPH, WITNESS_COLORING) is is_rainbow
