"""Pinned outputs of the four colouring constructions.

The digests were recorded before the constructions were routed through one
colouring assembler, so any change to a colouring file or to a trace field
the CLI writes shows up here.
"""

from __future__ import annotations

import hashlib
import random

from rainbowindex import (
    Graph,
    color_kdom,
    color_km1dom,
    color_pipeline,
    format_coloring,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    induced_subgraph,
    spanning_tree_coloring,
)


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def _corpus():
    """Seeded (graph, k) cases: n = 30-200, mean degree 6-20, k = 2-4."""
    rng = random.Random(11)
    for i in range(12):
        n = rng.randint(30, 200)
        degree = rng.choice((6, 12, 20))
        g = gnp_connected_graph(n, degree / (n - 1), seed=rng.randrange(10**6))
        yield g, 2 + i % 3


def _km1_items(g: Graph, dom, k: int, core_coloring=None):
    coloring, trace = color_km1dom(g, dom, k, core_coloring)
    legs = sorted(trace.legs.items())
    return (
        format_coloring(coloring),
        trace.dominating,
        sorted(trace.isolated_outside),
        sorted(trace.side_even),
        sorted(trace.side_odd),
        trace.forest_edges,
        legs,
        trace.cross_color,
        trace.tree_edges,
    )


#: sha256 over the colouring file and CLI trace fields of color_pipeline.
PINNED_PIPELINE = "daca357b3dcb6685beba681a00ffc6284f3c848b8dd4fef1c4877af381073381"

#: sha256 over the colouring files of color_kdom, with the greedy set, with
#: a supplied core colouring, and with D = V.
PINNED_KDOM = "428f5539bc6f8414de2aa3f3ba3da8e0a4147c69c53219c1dcce0ed3df61d48a"

#: sha256 over the colouring file and trace fields of color_km1dom.
PINNED_KM1DOM = "3417cf72a28daba53ceeccc984d7723f3bfab053d4fbcd864a67f0dbde450277"

#: sha256 over the colouring files of spanning_tree_coloring.
PINNED_SPANNING = "0bcbbdab8edf46797fcbe47ae9b75262745667967a559c4e87c8c6cbbc78a2f2"


def test_pinned_pipeline():
    items = []
    for g, k in _corpus():
        coloring, trace = color_pipeline(g, k)
        items.append(
            (
                format_coloring(coloring),
                trace.core,
                trace.tree_edges,
                [sorted(s) for s in trace.near_sets],
                [sorted(s) for s in trace.far_sets],
            )
        )
    assert _digest(items) == PINNED_PIPELINE


def test_pinned_kdom():
    items = []
    for g, k in _corpus():
        dom = greedy_connected_k_dominating(g, k)
        items.append(format_coloring(color_kdom(g, dom, k)))
        if len(dom.vertices) >= k:
            core = spanning_tree_coloring(induced_subgraph(g, dom.vertices)[0])
            items.append(format_coloring(color_kdom(g, dom, k, core)))
        items.append(format_coloring(color_kdom(g, range(g.n), k)))
    assert _digest(items) == PINNED_KDOM


def test_pinned_km1dom():
    items = []
    for g, k in _corpus():
        if g.min_degree < k:
            continue
        dom = greedy_connected_k_dominating(g, k - 1)
        items.append(_km1_items(g, dom, k))
        if len(dom.vertices) >= k:
            core = spanning_tree_coloring(induced_subgraph(g, dom.vertices)[0])
            items.append(_km1_items(g, dom, k, core))
    assert len(items) >= 8
    assert _digest(items) == PINNED_KM1DOM


def test_pinned_spanning_tree_coloring():
    items = [format_coloring(spanning_tree_coloring(g)) for g, _ in _corpus()]
    assert _digest(items) == PINNED_SPANNING


def test_spanning_tree_coloring_on_edgeless_graphs():
    # no edges, no colours: n - 1 would give -1 at n = 0
    for n in (0, 1):
        coloring = spanning_tree_coloring(Graph(n, frozenset()))
        assert coloring.color_count == 0 and not coloring.colors
    single = spanning_tree_coloring(Graph(2, frozenset({(0, 1)})))
    assert single.color_count == 1 and dict(single.colors) == {(0, 1): 1}
