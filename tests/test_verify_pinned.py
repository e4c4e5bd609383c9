"""Pinned outputs of the rainbow-tree search and the exact solver.

The witness digest was recorded before the verifier and the exact
solver's pruning were merged into one search, and the exact digests when
the solver began to color the edge on the most live trees of the subset
that failed last, so any change to a witness, a node count or a returned
coloring shows up here.
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
    steiner_diameter,
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
#: With the edges colored in index order it was 8c6819c7..., one instance
#: ended unknown and the 24 took 4,726 nodes; now all settle, in 1,649.
PINNED_EXACT = "e19ebd73383faa2e1a90e03236d85cfe81f3dd3a95619ee531c78c7125e9c94d"


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
#: With the edges colored in index order it was d3fa636b..., and the 81
#: instances took 10,783 nodes; 12 unknown results now settle, none the
#: other way, and they take 7,751.
PINNED_EXACT_BENCH_SHAPE = (
    "c5aab7e49e13baac6189fc76fb40b6082786e310e374eda0631adc265b77089c"
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


def test_tree_bit_order_is_not_read(monkeypatch):
    # below the tree cap every reader of the pool only ANDs, ORs or counts
    # tree bits, so numbering the trees the other way round leaves every
    # value, node count and coloring as it was
    instances = list(_pinned_exact_instances())
    instances += [
        (_connected_gnm(8, 14, seed), k, 200) for seed in range(40) for k in (2, 4)
    ]
    expected = _exact_outcomes(instances)
    supports = verify_module._tree_supports

    def reversed_supports(inc, k, c):
        through = supports(inc, k, c)
        if through is None:
            return None
        count = max(trees.bit_length() for trees in through)
        return [int(f"{trees:0{count}b}"[::-1], 2) for trees in through]

    monkeypatch.setattr(verify_module, "_tree_supports", reversed_supports)
    assert _exact_outcomes(instances) == expected


def _replay_admits(g, k: int, c: int, steps: int, seed: int) -> list[bool]:
    """``admit``'s answers along one seeded walk of placements, in any edge
    order and color, and retractions, through a prune built at the current
    tree cap. The walk follows the answers, so two prunes that answer alike
    see the same walk."""
    edges = g.sorted_edges()
    bits = [0] * len(edges)
    inc = verify_module._incidence(g.n, edges)
    admit, retract, _ = verify_module._tree_prune(k, c, edges, inc, bits)
    rng = random.Random(seed)
    placed: list[int] = []
    answers = []
    for _ in range(steps):
        free = [i for i, bit in enumerate(bits) if not bit]
        if placed and (not free or rng.random() < 0.25):
            retract()
            bits[placed.pop()] = 0
            continue
        i, col = rng.choice(free), rng.randint(1, c)
        bits[i] = 1 << col
        answers.append(admit(i, col))
        if answers[-1]:
            placed.append(i)
        else:
            bits[i] = 0
    return answers


def test_tree_supports_and_searches_prune_alike(monkeypatch):
    # the pinned instances, the oracle graphs and the exact benchmark's
    # shape stay under the tree cap, so they never search; forced onto the
    # search path by a cap of 0, the prune must give the same answer at
    # every step of a walk of placements and retractions, in an edge order
    # unlike the solver's. The next edge is read off the pool, so the
    # solver's nodes and colorings may differ between the caps, but an
    # instance that settles under both must settle alike
    instances = list(_pinned_exact_instances())
    instances += [
        (g, k, None) for g in _exact_oracle_sample() for k in (2, 3) if k <= g.n
    ]
    instances += [
        (_connected_gnm(8, 14, seed), k, 200) for seed in range(4) for k in (2, 4)
    ]
    levels = [
        (index, g, k, c)
        for index, (g, k, _) in enumerate(instances)
        for c in range(max(k - 1, steiner_diameter(g, k)), g.n - 1)
    ]
    search = verify_module._rainbow_tree

    def refuse(*args):
        raise AssertionError("searched below the tree cap")

    monkeypatch.setattr(verify_module, "_rainbow_tree", refuse)
    supported = _exact_outcomes(instances)
    replayed = [_replay_admits(g, k, c, 40, seed) for seed, g, k, c in levels]
    monkeypatch.setattr(verify_module, "_rainbow_tree", search)
    monkeypatch.setattr(verify_module, "_TREE_CAP", 0)
    searched = _exact_outcomes(instances)
    assert [_replay_admits(g, k, c, 40, seed) for seed, g, k, c in levels] == replayed
    answers = [answer for walk in replayed for answer in walk]
    assert True in answers and False in answers
    settled = [
        (a[:2], b[:2])
        for a, b in zip(supported, searched)
        if a[0] == b[0] == "exact"
    ]
    assert len(settled) > len(instances) * 3 // 4
    assert all(a == b for a, b in settled)


def test_exact_does_not_reverify_complete_colorings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complete coloring re-verified")

    monkeypatch.setattr(verify_module, "is_k_rainbow_connected", refuse)
    # rx_2(C6) = 3 sits strictly between the bounds 3 and 5, so the
    # search runs down to a complete coloring
    result = exact_rx_k(cycle_graph(6), 2)
    assert (result.status, result.value) == ("exact", 3) and result.nodes > 0
