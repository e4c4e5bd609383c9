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
    complete_graph,
    cycle_graph,
    exact_rx_k,
    exists_rainbow_stree,
    gnp_connected_graph,
)
from rainbowindex import verify as verify_module
from tests.test_acceptance import _exact_oracle_sample
from tests.test_verify import _connected_gnm


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


def _pinned_exact_instances():
    """(graph, k, node budget) per pinned exact instance."""
    rng = random.Random(5)
    for i in range(24):
        n = rng.randint(6, 8)
        g = gnp_connected_graph(n, rng.choice((0.35, 0.5)), seed=rng.randrange(10**6))
        yield g, 2 + i % 3, 1500


def _exact_outcomes(instances):
    """(status, value, lower, upper, nodes, sorted coloring) per instance."""
    items = []
    for g, k, node_budget in instances:
        r = exact_rx_k(g, k, node_budget=node_budget)
        colors = None if r.coloring is None else sorted(r.coloring.colors.items())
        items.append((r.status, r.value, r.lower, r.upper, r.nodes, colors))
    return items


#: sha256 over (status, value, lower, upper, nodes, sorted coloring) per
#: instance of the exact benchmark's shape: G(8, m=14) at k = 2 and 4 with a
#: node budget of 200, and K8 at k = 7, whose level 6 passes the tree cap.
#: Recorded while the tree enumeration still grew each tree from every
#: vertex and dropped duplicates.
PINNED_EXACT_BENCH_SHAPE = (
    "d3fa636b22af3e18a5d6aa065f35f482a8b3555bf0fdbb65fb0f10ae249db8e9"
)


def test_pinned_exact_benchmark_shape():
    # about 0.3-0.6 s on a 2-core host
    instances = [
        (_connected_gnm(8, 14, seed), k, 200) for seed in range(40) for k in (2, 4)
    ]
    instances.append((complete_graph(8), 7, None))
    assert _digest(_exact_outcomes(instances)) == PINNED_EXACT_BENCH_SHAPE


def test_pinned_exact_results():
    items = [
        (status, value, nodes, colors)
        for status, value, _, _, nodes, colors in _exact_outcomes(
            _pinned_exact_instances()
        )
    ]
    assert _digest(items) == PINNED_EXACT


def test_tree_supports_and_searches_prune_alike(monkeypatch):
    # the pinned instances, the oracle graphs and the exact benchmark's
    # shape stay under the tree cap, so they never search; forced onto the
    # search path by a cap of 0, every result, node count, coloring and
    # unknown result's bounds must be the same
    instances = list(_pinned_exact_instances())
    instances += [
        (g, k, None) for g in _exact_oracle_sample() for k in (2, 3) if k <= g.n
    ]
    instances += [
        (_connected_gnm(8, 14, seed), k, 200) for seed in range(4) for k in (2, 4)
    ]
    search = verify_module._rainbow_tree

    def refuse(*args):
        raise AssertionError("searched below the tree cap")

    monkeypatch.setattr(verify_module, "_rainbow_tree", refuse)
    supported = _exact_outcomes(instances)
    monkeypatch.setattr(verify_module, "_rainbow_tree", search)
    monkeypatch.setattr(verify_module, "_TREE_CAP", 0)
    assert _exact_outcomes(instances) == supported


def test_exact_does_not_reverify_complete_colorings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complete coloring re-verified")

    monkeypatch.setattr(verify_module, "is_k_rainbow_connected", refuse)
    # rx_2(C6) = 3 sits strictly between the bounds 3 and 5, so the
    # search runs down to a complete coloring
    result = exact_rx_k(cycle_graph(6), 2)
    assert (result.status, result.value) == ("exact", 3) and result.nodes > 0
