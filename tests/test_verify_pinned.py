"""Pinned outputs of the rainbow-tree search and the exact solver.

The digests were recorded before the verifier and the exact solver's
pruning were merged into one search, so any change to a witness, a node
count or a returned coloring shows up here.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from rainbowindex import (
    EdgeColoring,
    cycle_graph,
    exact_rx_k,
    exists_rainbow_stree,
    gnp_connected_graph,
)
from rainbowindex import verify as verify_module


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def _random_colorings(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 10)
        p = rng.choice((0.3, 0.5, 0.7))
        g = gnp_connected_graph(n, p, seed=rng.randrange(10**6))
        c = rng.randint(2, min(g.m, n + 1))
        colors = {e: rng.randint(1, c) for e in g.sorted_edges()}
        yield g, EdgeColoring(g, colors, c)


#: sha256 over every 2- and 3-subset's witness (sorted edges, or None).
PINNED_WITNESSES = "4b9b8180581589a7574718827ff5b1008ec94a981d7694a490852f72605f3f74"

#: sha256 over (status, value, nodes, sorted coloring) per instance.
PINNED_EXACT = "8c6819c7dbd3468e7364224b11fc7e6e43f2132791eef8e4777676eb052a66a3"


def test_pinned_witnesses():
    items = []
    for g, coloring in _random_colorings(30, seed=7):
        for k in (2, 3):
            for subset in itertools.combinations(range(g.n), k):
                w = exists_rainbow_stree(g, coloring, subset)
                items.append(None if w is None else sorted(w.edges))
    assert _digest(items) == PINNED_WITNESSES


def test_pinned_exact_results():
    rng = random.Random(5)
    items = []
    for i in range(24):
        n = rng.randint(6, 8)
        g = gnp_connected_graph(n, rng.choice((0.35, 0.5)), seed=rng.randrange(10**6))
        r = exact_rx_k(g, 2 + i % 3, node_budget=1500)
        colors = None if r.coloring is None else sorted(r.coloring.colors.items())
        items.append((r.status, r.value, r.nodes, colors))
    assert _digest(items) == PINNED_EXACT


def test_exact_does_not_reverify_complete_colorings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complete coloring re-verified")

    monkeypatch.setattr(verify_module, "is_k_rainbow_connected", refuse)
    # rx_2(C6) = 3 sits strictly between the bounds 3 and 5, so the
    # search runs down to a complete coloring
    result = exact_rx_k(cycle_graph(6), 2)
    assert (result.status, result.value) == ("exact", 3) and result.nodes > 0
