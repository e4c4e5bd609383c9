import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    Graph,
    InvariantViolation,
    color_pipeline,
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    split_k,
    split_two,
)
from rainbowindex.graph import component_masks
from tests.test_graph import connected_graphs, graphs_with_subsets


def check_split_two(g, first, second):
    assert first.edges | second.edges == g.edges
    assert not first.edges & second.edges
    bound = (g.min_degree - 1) // 2
    for part in (first, second):
        assert part.n == g.n
        assert part.min_degree >= bound
    for v in range(g.n):
        assert abs(first.degree(v) - second.degree(v)) <= 2


def test_split_two_c4_vacuous_bound():
    g = cycle_graph(4)
    check_split_two(g, *split_two(g))


def test_split_two_k4_matches_exhaustive_feasibility():
    # oracle: some bipartition of K4's six edges keeps min degree >= 1 on
    # both sides, and the construction's output is one of the valid ones
    g = complete_graph(4)
    edges = g.sorted_edges()
    feasible = []
    for bits in range(64):
        one = frozenset(e for i, e in enumerate(edges) if bits >> i & 1)
        two = frozenset(e for i, e in enumerate(edges) if not bits >> i & 1)
        ga, gb = Graph(4, one), Graph(4, two)
        if ga.min_degree >= 1 and gb.min_degree >= 1:
            feasible.append((one, two))
    assert feasible
    first, second = split_two(g)
    check_split_two(g, first, second)
    assert (first.edges, second.edges) in feasible or (
        second.edges,
        first.edges,
    ) in feasible


def test_split_two_k5_balanced():
    g = complete_graph(5)
    first, second = split_two(g)
    check_split_two(g, first, second)
    # even degrees and an even Euler circuit: perfectly balanced here
    assert first.min_degree >= 2 and second.min_degree >= 2


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_n=10))
def test_split_two_contract_random(g):
    check_split_two(g, *split_two(g))


def test_split_pow2_k9_level_one():
    cert = split_k(complete_graph(9), 2)  # threshold (delta - 2) / 2
    assert cert.thresholds == (3, 3)
    assert cert.required_min_degrees() == (3, 3)
    assert all(p.min_degree >= 3 for p in cert.parts)


def test_split_pow2_k9_level_two():
    cert = split_k(complete_graph(9), 4)  # threshold (delta - 6) / 4
    assert cert.thresholds == (Fraction(1, 2),) * 4
    assert cert.required_min_degrees() == (1, 1, 1, 1)
    assert all(p.min_degree >= 1 for p in cert.parts)


def test_split_pow2_vacuous_threshold_reported():
    g = cycle_graph(8)  # delta = 2 <= 2^(l+1) - 2
    cert = split_k(g, 4)
    assert len(cert.parts) == 4
    assert all(t <= 0 for t in cert.thresholds)
    assert cert.required_min_degrees() == (None, None, None, None)
    assert not cert.check()


def test_split_k_identity():
    g = complete_graph(5)
    cert = split_k(g, 1)
    assert cert.parts == (g,)
    assert cert.thresholds == (4,)
    assert split_k(complete_graph(9), 1).thresholds == (8,)


def test_split_k_two_on_k5():
    cert = split_k(complete_graph(5), 2)
    assert cert.thresholds == (1, 1)
    assert cert.required_min_degrees() == (1, 1)
    assert all(p.min_degree >= 1 for p in cert.parts)


def test_split_k_three_on_k9():
    cert = split_k(complete_graph(9), 3)
    assert cert.thresholds == (3, Fraction(1, 2), Fraction(1, 2))
    assert cert.required_min_degrees() == (3, 1, 1)
    assert not cert.check()
    with pytest.raises(TypeError):  # the claims are derived, not stored
        dataclasses.replace(cert, thresholds=(0, 0, 0))


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=10), st.integers(1, 6))
def test_split_k_certificate_random(g, k):
    cert = split_k(g, k)
    assert len(cert.parts) == k
    # the lemma: 2^t <= k < 2^(t+1), s = k - 2^t; k - 2s parts at the
    # depth-t threshold, then 2s parts split once more
    t = max(l for l in range(k.bit_length()) if 2**l <= k)
    s = k - 2**t
    delta = g.min_degree
    base = Fraction(delta - 2 ** (t + 1) + 2, 2**t)
    fine = Fraction(delta - 2 ** (t + 2) + 2, 2 ** (t + 1))
    assert cert.thresholds == (base,) * (k - 2 * s) + (fine,) * (2 * s)
    assert cert.required_min_degrees() == tuple(
        math.ceil(x) if x > 0 else None for x in cert.thresholds
    )
    assert not cert.check()


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=9))
def test_split_composes(g):
    # re-splitting any part honors the bound for that part's own min degree
    first, _ = split_two(g)
    check_split_two(first, *split_two(first))


def test_split_partition_on_corpus_sample():
    for seed in range(3):
        g = gnp_connected_graph(25, 0.4, seed=seed + 100)
        for k in (2, 3, 5):
            cert = split_k(g, k)
            union = set()
            total = 0
            for part in cert.parts:
                union |= part.edges
                total += part.m
            assert union == set(g.edges) and total == g.m


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def _split_corpus():
    """Seeded graphs covering the walk's edge cases: no vertices, one
    vertex, isolated vertices, several components, no odd vertex (so no
    auxiliary circuit), and a dense G(60, 0.5)."""
    yield Graph(0, frozenset())
    yield Graph(1, frozenset())
    yield Graph(5, frozenset())
    yield complete_graph(5)  # all degrees even
    yield cycle_graph(6)  # all degrees even
    yield Graph.build(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    yield Graph.build(7, [(0, 1), (1, 2), (4, 5)])  # paths and isolated vertices
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 16)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        yield Graph.build(n, pairs)
    yield gnp_connected_graph(60, 0.5, seed=3)


#: sha256 over split_two's two sides and split_k's parts (k = 2..5), as
#: sorted edge lists per graph of the corpus.
PINNED_SPLITS = "5fb10f99386ee9622374a9a49542b0cef4da20ab01da9f0e89760b1b2c9fed1f"


def test_pinned_split_sides():
    items = []
    for g in _split_corpus():
        first, second = split_two(g)
        items.append((sorted(first.edges), sorted(second.edges)))
        for k in range(2, 6):
            items.append([sorted(p.edges) for p in split_k(g, k).parts])
    assert _digest(items) == PINNED_SPLITS


def reference_split_two(g):
    """split_two's sides by a plain Hierholzer walk over sorted adjacency
    lists: the auxiliary vertex n joins every odd-degree vertex, its circuit
    comes first and then one from each start in ascending order, and each
    step takes the lowest unwalked neighbour. The circuit's even steps are
    side 0, its odd steps side 1, both without the auxiliary edges. Also
    returns the walk's first trail, the stack when it first gets stuck."""
    n = g.n
    adj = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    odd = [v for v in range(n) if len(adj[v]) % 2]
    for v in odd:
        adj[v].append(n)  # above every vertex, so taken last
    adj.append(odd)
    sides = (set(), set())
    first_trail = None
    for start in (n, *range(n)):
        if not adj[start]:
            continue
        stack, circuit = [start], []
        while stack:
            v = stack[-1]
            if adj[v]:
                w = adj[v].pop(0)
                adj[w].remove(v)
                stack.append(w)
            else:
                if first_trail is None:
                    first_trail = list(stack)
                circuit.append(stack.pop())
        circuit.reverse()
        for i, step in enumerate(zip(circuit, circuit[1:])):
            if n not in step:
                sides[i % 2].add(tuple(sorted(step)))
    return sides, first_trail


def assert_matches_reference(g, levels=1):
    """split_two agrees with the reference on g and, for ``levels`` > 1, on
    the sides of its sides, as split_k takes them."""
    sides = split_two(g)
    ref_sides, _ = reference_split_two(g)
    assert [side.edges for side in sides] == list(ref_sides)
    if levels > 1:
        for side in sides:
            assert_matches_reference(side, levels - 1)


def test_split_two_matches_a_plain_hierholzer_walk_on_corpus():
    for g in _split_corpus():
        assert_matches_reference(g, levels=3)


@pytest.mark.parametrize(
    "shared, circuit, sides",
    [
        # the walk unwinds 0 and splices the trail 2-3-4-2 in at 2
        (2, [0, 1, 2, 3, 4, 2, 0], ({(0, 1), (2, 3), (2, 4)}, {(1, 2), (3, 4), (0, 2)})),
        # the walk unwinds 0 and 2 and splices the trail 1-3-4-1 in at 1
        (1, [0, 1, 3, 4, 1, 2, 0], ({(0, 1), (3, 4), (1, 2)}, {(1, 3), (1, 4), (0, 2)})),
    ],
)
def test_split_two_unwinds_a_circuit_of_several_trails(shared, circuit, sides):
    # two triangles sharing a vertex: the first trail 0-1-2-0 closes with the
    # other triangle unwalked, so the last trail closes the circuit
    g = Graph.build(5, [(0, 1), (1, 2), (2, 0), (shared, 3), (3, 4), (4, shared)])
    ref_sides, first_trail = reference_split_two(g)
    assert first_trail == [0, 1, 2, 0]
    steps = [tuple(sorted(step)) for step in zip(circuit, circuit[1:])]
    assert ref_sides == (set(steps[::2]), set(steps[1::2])) == sides
    assert_matches_reference(g)


@settings(max_examples=200, deadline=None)
@given(graphs_with_subsets(max_n=16))
def test_split_two_matches_a_plain_hierholzer_walk_random(case):
    assert_matches_reference(case[0])


def assert_same_as_fresh(part):
    """A split side carries bitmask rows and skips the edge check; the graph
    built afresh from its edges must agree with it on every view."""
    fresh = Graph(part.n, part.edges)
    assert part.adj_bits == fresh.adj_bits
    assert part.min_degree == fresh.min_degree
    full = (1 << part.n) - 1
    assert component_masks(part, full) == component_masks(fresh, full)
    assert part.is_connected == fresh.is_connected
    assert part.sorted_edges() == fresh.sorted_edges()
    assert part == fresh and hash(part) == hash(fresh)


def test_derived_graphs_match_fresh_ones_on_corpus():
    for g in _split_corpus():
        for side in split_two(g):
            assert_same_as_fresh(side)
        for k in range(2, 6):
            for part in split_k(g, k).parts:
                assert_same_as_fresh(part)


@settings(max_examples=100, deadline=None)
@given(graphs_with_subsets(), st.integers(2, 5))
def test_derived_graphs_match_fresh_ones_random(case, k):
    g, _ = case
    for side in split_two(g):
        assert_same_as_fresh(side)
    for part in split_k(g, k).parts:
        assert_same_as_fresh(part)


def test_split_parts_build_no_sorted_rows():
    # the split, its certificate and the pipeline read only bitmask rows, so
    # a part's edge set and edge order stay unbuilt until a caller asks for
    # them
    g = gnp_connected_graph(60, 0.5, seed=3)
    unbuilt = ("edges", "_edge_order")
    for k in range(2, 6):
        cert = split_k(g, k)
        _, trace = color_pipeline(g, k)
        for part in cert.parts + trace.split.parts:
            assert not any(name in part.__dict__ for name in unbuilt)
            m = part.m  # counted off the rows
            assert "edges" not in part.__dict__ and m == len(part.edges)
            assert part.sorted_edges() == tuple(sorted(part.edges))


def _tampered(cert, shape):
    """``cert`` with one claim broken by editing its parts, or its k."""
    if shape.startswith("k = "):
        return dataclasses.replace(cert, k=int(shape[4:]))
    g = cert.parent
    p0, p1, p2 = cert.parts
    missing = next(e for e in itertools.combinations(range(g.n), 2) if e not in g.edges)
    parts = {
        "foreign edge": (Graph(g.n, p0.edges | {missing}), p1, p2),
        "shared edge": (p0, Graph(g.n, p1.edges | {min(p0.edges)}), p2),
        "uncovered edge": (p0, Graph(g.n, p1.edges - {min(p1.edges)}), p2),
        "more vertices": (p0, p1, Graph(g.n + 1, p2.edges)),
        "more vertices, foreign edge": (p0, p1, Graph(g.n + 1, p2.edges | {(0, g.n)})),
        "fewer vertices": (
            p0,
            p1,
            Graph(g.n - 1, frozenset(e for e in p2.edges if e[1] < g.n - 1)),
        ),
        # vertex 0's part-0 edges move to part 1: a partition still, but
        # part 0 falls below the degree its threshold requires
        "low degree": (
            Graph(g.n, frozenset(e for e in p0.edges if 0 not in e)),
            Graph(g.n, p1.edges | frozenset(e for e in p0.edges if 0 in e)),
            p2,
        ),
        "two parts": (p0, Graph(g.n, p1.edges | p2.edges)),
    }[shape]
    return dataclasses.replace(cert, parts=parts)


@pytest.mark.parametrize(
    "shape, problems",
    [
        ("foreign edge", ["part 0 has foreign edges", "parts do not cover the parent edge set"]),
        ("shared edge", ["parts are not pairwise edge-disjoint"]),
        ("uncovered edge", ["parts do not cover the parent edge set"]),
        ("more vertices", ["part 2 is not spanning"]),
        (
            "more vertices, foreign edge",
            [
                "part 2 is not spanning",
                "part 2 has foreign edges",
                "parts do not cover the parent edge set",
            ],
        ),
        ("fewer vertices", ["part 2 is not spanning", "parts do not cover the parent edge set"]),
        ("low degree", ["part 0 min degree 0 < required 2"]),
        ("two parts", ["2 parts, expected k = 3"]),
        # no threshold is read below k = 1: its shift count would be negative
        ("k = 0", ["k = 0, expected k >= 1"]),
        ("k = -1", ["k = -1, expected k >= 1"]),
    ],
)
def test_split_certificate_names_each_violation(shape, problems):
    # the row checks report what the edge-set checks reported, in that order
    cert = split_k(gnp_connected_graph(20, 0.5, seed=3), 3)
    assert not cert.check()
    assert _tampered(cert, shape).check() == problems


def test_split_two_peak_memory_stays_with_the_rows():
    """K_{2,19998}: 20,000 vertices, every degree even (no auxiliary edges).
    A table of every vertex's bit would hold about 25 MB; the rows and the
    walk's circuit take a few MB."""
    n = 20_000
    g = Graph.build(n, [(h, v) for h in (0, 1) for v in range(2, n)])
    rows = g.adj_bits
    tracemalloc.start()
    try:
        first, second = split_two(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert first.m + second.m == g.m and first.min_degree == second.min_degree == 1
    assert [a | b for a, b in zip(first.adj_bits, second.adj_bits)] == list(rows)


def test_split_two_holds_one_copy_of_the_circuit():
    """K_251: 31,375 edges over rows of 251 bits, so the circuit's lists
    outweigh the rows, and every vertex id is a cached small int. The walk's
    stack, reused as the circuit, and the two halves it is paired from take
    about 17 bytes an edge; a second copy of the circuit would take 25."""
    g = complete_graph(251)
    rows = g.adj_bits
    tracemalloc.start()
    try:
        first, second = split_two(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21 * g.m
    assert [a | b for a, b in zip(first.adj_bits, second.adj_bits)] == list(rows)


def test_split_two_min_degree_check_fires():
    # a parent that claims a larger min degree than its sides can keep
    g = complete_graph(5)
    g.__dict__["min_degree"] = 9
    with pytest.raises(InvariantViolation, match="min degree below 4"):
        split_two(g)
