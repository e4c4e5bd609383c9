"""The exact solver and the constructions against closed forms for the
index proven in the literature (``tests/oracles.py``), on cycles, wheels,
hypercubes, complete and complete bipartite graphs and paths."""

from rainbowindex import (
    Graph,
    color_kdom,
    color_km1dom,
    color_pipeline,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    exact_rx_k,
    greedy_connected_k_dominating,
    path_graph,
)
from tests.oracles import (
    published_rc_complete_bipartite,
    published_rc_hypercube,
    published_rc_wheel,
    published_rx3_complete,
    published_rx_cycle,
    published_rx_tree,
)


def wheel_graph(r: int) -> Graph:
    """A hub, vertex r, joined to every vertex of the cycle on 0..r-1."""
    rim = [(i, (i + 1) % r) for i in range(r)]
    return Graph.build(r + 1, rim + [(i, r) for i in range(r)])


def hypercube_graph(d: int) -> Graph:
    """Vertices 0..2^d-1, joined when their binary forms differ in one bit."""
    n = 1 << d
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return Graph.build(n, edges)


# (name, graph, k, published value); each settles well under a second. Left
# out: K_{2,10}, K_{3,9} and K_{3,10}, which take seconds to minutes
CASES = [
    *[
        (f"C{n}", cycle_graph(n), k, published_rx_cycle(n, k))
        for k in (2, 3)
        for n in range(5, 15)
    ],
    *[(f"C{n}", cycle_graph(n), 4, published_rx_cycle(n, 4)) for n in (6, 8, 10, 12)],
    *[(f"W{r}", wheel_graph(r), 2, published_rc_wheel(r)) for r in range(4, 13)],
    *[(f"Q{d}", hypercube_graph(d), 2, published_rc_hypercube(d)) for d in (3, 4)],
    *[(f"K{n}", complete_graph(n), 3, published_rx3_complete(n)) for n in range(5, 10)],
    *[
        (f"K{s},{t}", complete_bipartite_graph(s, t), 2, published_rc_complete_bipartite(s, t))
        for s, t in [(2, 3), (2, 4), (2, 5), (2, 6), (2, 9), (3, 3), (3, 8)]
    ],
    *[(f"P{n}", path_graph(n), k, published_rx_tree(n)) for n in (5, 7) for k in (2, 3)],
]


def test_exact_and_constructions_meet_published_values():
    # the solver settles each case at the published value, and no
    # construction, each a k-rainbow coloring, uses fewer colors
    assert len(CASES) == 51
    for name, g, k, value in CASES:
        result = exact_rx_k(g, k, force=True, time_budget_s=20.0)
        assert (result.status, result.value) == ("exact", value), (name, k)
        colorings = [
            color_pipeline(g, k)[0],
            color_kdom(g, greedy_connected_k_dominating(g, k), k),
        ]
        if g.min_degree >= k:
            km1 = greedy_connected_k_dominating(g, k - 1)
            colorings.append(color_km1dom(g, km1, k)[0])
        for coloring in colorings:
            assert len(set(coloring.colors.values())) >= value, (name, k)
