import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    Graph,
    SearchBudgetExceeded,
    all_distinct_coloring,
    bounds_report,
    complete_graph,
    cycle_graph,
    exact_rx_k,
    exists_rainbow_stree,
    gnp_connected_graph,
    is_k_rainbow_connected,
    min_degree_upper_bound,
    path_graph,
    spanning_tree_coloring,
    steiner_diameter,
)
from tests.oracles import oracle_exact_rx, oracle_exists_rainbow_tree
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
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        exists_rainbow_stree(g, all_distinct_coloring(g), [0, 9])


def test_budget_exhaustion_raises():
    g = complete_graph(7)
    colors = {e: 1 for e in g.edges}
    coloring = EdgeColoring(g, colors, 1)
    with pytest.raises(SearchBudgetExceeded):
        exists_rainbow_stree(g, coloring, [0, 1, 2], node_budget=1)


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
    assert report.best_lower() == 4 and report.best_upper() == 4


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
            assert report.best_lower() <= report.best_upper()
            if report.exact is not None:
                assert report.best_lower() <= report.exact <= report.best_upper()


def test_report_marks_inapplicable_formula():
    report = bounds_report(cycle_graph(8), 2)  # delta = 2 gives denominator 0
    inapplicable = [
        e for e in report.upper if e.value is None and "not applicable" in e.source
    ]
    assert inapplicable


def test_report_rejects_disconnected():
    with pytest.raises(ValueError):
        bounds_report(Graph.build(4, [(0, 1), (2, 3)]), 2)


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
