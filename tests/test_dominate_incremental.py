"""The incremental dominate constructions against from-scratch references.

The references below restate the plain algorithms: a full BFS after every
added vertex, every component pair measured again in every merge round, and
a predicate rescan plus frontier rebuild per greedy step. They use nothing
from the library but ``Graph``, so a bookkeeping slip in the incremental
versions cannot hide behind a shared helper.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import rainbowindex
import rainbowindex.dominate as dominate
from rainbowindex import (
    DominationCertificate,
    Graph,
    InvariantViolation,
    color_pipeline,
    connect_two_step,
    cycle_graph,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    greedy_two_step_dominating,
    path_graph,
    split_k,
    union_connect,
)
from tests.oracles import sorted_rows

# ---------------------------------------------------------------------------
# From-scratch references


def ref_bfs(g: Graph, sources) -> list[int | None]:
    adj = sorted_rows(g)
    dist: list[int | None] = [None] * g.n
    queue = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def ref_components_within(g: Graph, dom) -> list[tuple[int, ...]]:
    adj = sorted_rows(g)
    remaining = set(dom)
    comps = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in remaining and w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        comps.append(tuple(sorted(comp)))
    return comps


def ref_shortest_path(g: Graph, a, b) -> list[int]:
    """First-arrival BFS path from sorted sources in A to the first vertex of B."""
    adj = sorted_rows(g)
    sb = set(b)
    parent: dict[int, int | None] = {}
    queue = deque()
    for s in sorted(set(a)):
        parent[s] = None
        queue.append(s)
    hit = next((s for s in sorted(set(a)) if s in sb), None)
    while hit is None:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                if w in sb:
                    hit = w
                    break
                queue.append(w)
    path = [hit]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def ref_greedy_two_step(part: Graph) -> tuple[int, ...]:
    delta = part.min_degree
    dom = [comp[0] for comp in ref_components_within(part, range(part.n))]
    dist = ref_bfs(part, dom)
    cover = sum(1 for d in dist if d is not None and d <= 1)
    assert cover >= len(dom) * (delta + 1)
    while True:
        level3 = [v for v in range(part.n) if dist[v] == 3]
        if not level3:
            break
        dom.append(min(level3))
        dist = ref_bfs(part, dom)
        new_cover = sum(1 for d in dist if d is not None and d <= 1)
        assert new_cover - cover >= delta + 1
        cover = new_cover
    return tuple(sorted(dom))


def ref_connect_two_step(g: Graph, dominating, merged_at=None) -> tuple[int, ...]:
    """The connected set; appends each merge's distance to ``merged_at``."""
    dom = set(dominating)
    while True:
        comps = ref_components_within(g, dom)
        if len(comps) <= 1:
            return tuple(sorted(dom))
        dists = [ref_bfs(g, comp) for comp in comps]
        d, i, j = min(
            (min(dists[i][v] for v in comps[j]), i, j)
            for i in range(len(comps))
            for j in range(i + 1, len(comps))
        )
        assert d <= 5
        if merged_at is not None:
            merged_at.append(d)
        dom.update(ref_shortest_path(g, comps[i], comps[j])[1:-1])


def ref_union_connect(g: Graph, sets) -> tuple[int, ...]:
    """Add the lowest-id midpoint outside D between the component holding
    the first set's lowest vertex and the lowest-id other component."""
    adj = sorted_rows(g)
    dom = set().union(*sets)
    while True:
        comps = ref_components_within(g, dom)
        if len(comps) <= 1:
            return tuple(sorted(dom))
        anchor = next(c for c in comps if sets[0][0] in c)
        target = next(c for c in comps if c != anchor)
        closed = [set(c).union(*(adj[v] for v in c)) for c in (anchor, target)]
        dom.add(min((closed[0] & closed[1]) - dom))


def ref_greedy_connected_k(g: Graph, j: int) -> tuple[int, ...]:
    adj = sorted_rows(g)

    def satisfied(dom):
        return all(
            sum(1 for w in adj[v] if w in dom) >= j
            for v in range(g.n)
            if v not in dom
        )

    dom = {min(range(g.n), key=lambda v: (-g.degree(v), v))}
    while not satisfied(dom):
        frontier = sorted({w for v in dom for w in adj[v] if w not in dom})

        def gain(w):
            return sum(
                1
                for v in adj[w]
                if v not in dom and sum(1 for x in adj[v] if x in dom) == j - 1
            )

        dom.add(min(frontier, key=lambda x: (-gain(x), x)))
    return tuple(sorted(dom))


# ---------------------------------------------------------------------------
# Property tests, n up to 40


@st.composite
def sparse_connected_graphs(draw, max_n=40):
    """Random spanning tree plus up to 2n extra edges: sparse enough that the
    greedy sets split into many components that connect_two_step must merge."""
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        )
    )
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return Graph.build(n, pairs)


@st.composite
def dense_connected_graphs(draw, max_n=40):
    """Random spanning tree plus G(n, p) with p >= 0.3: dense enough that the
    BFS of a whole graph or a split part often ends before radius 3."""
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.3, 0.7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    pairs |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    return Graph.build(n, pairs)


any_graphs = st.one_of(sparse_connected_graphs(), dense_connected_graphs())


@settings(max_examples=120, deadline=None)
@given(any_graphs, st.integers(1, 4))
def test_greedy_two_step_matches_reference(g, k):
    for part in (g, *split_k(g, k).parts):
        assert greedy_two_step_dominating(part).vertices == ref_greedy_two_step(part)


@settings(max_examples=120, deadline=None)
@given(any_graphs, st.integers(1, 4))
def test_connect_two_step_matches_reference(g, k):
    for part in (g, *split_k(g, k).parts):
        dom = ref_greedy_two_step(part)
        got = connect_two_step(g, part, dom).vertices
        assert got == ref_connect_two_step(g, dom)


def thinned_set(g: Graph, rnd, drops: int) -> tuple[int, ...]:
    """A 2-step dominating set of g: all vertices, then up to ``drops``
    random vertices taken out, each only if the rest still 2-step dominates.
    Many drops leave sparse sets whose components lie 3 to 5 apart, which
    greedy sets rarely do."""
    dom = set(range(g.n))
    for v in rnd.sample(range(g.n), min(drops, g.n)):
        rest = dom - {v}
        if rest and all(d is not None and d <= 2 for d in ref_bfs(g, rest)):
            dom = rest
    return tuple(sorted(dom))


@settings(max_examples=150, deadline=None)
@given(
    sparse_connected_graphs(),
    st.randoms(use_true_random=False),
    st.integers(0, 40),
)
def test_connect_two_step_matches_reference_on_thinned_sets(g, rnd, drops):
    dom = thinned_set(g, rnd, drops)
    merged_at: list[int] = []
    assert connect_two_step(g, g, dom).vertices == ref_connect_two_step(
        g, dom, merged_at
    )
    target(float(max(merged_at, default=0)), label="farthest merge")


@pytest.mark.parametrize(
    "g, dom, merged_at",
    [
        (path_graph(11), [0, 5, 10], [5, 5]),
        (path_graph(14), [0, 3, 8, 13], [3, 5, 5]),
        (cycle_graph(12), [0, 3, 6, 9], [3, 3, 3]),
        (cycle_graph(12), [0, 4, 8], [4, 4]),
        (cycle_graph(15), [0, 5, 10], [5, 5]),
        (cycle_graph(17), [0, 4, 9, 13], [4, 4, 4]),
    ],
)
def test_connect_two_step_merges_far_components(g, dom, merged_at):
    """Spaced sets on paths and cycles: every pair starts 3 or more apart,
    beyond its radius-1 balls, so no pair is queued until the common ball
    radius rises."""
    got: list[int] = []
    expected = ref_connect_two_step(g, dom, got)
    assert got == merged_at
    assert connect_two_step(g, g, dom).vertices == expected


def test_far_pair_raises_with_its_true_distance(monkeypatch):
    """A pair beyond distance 5 (possible only when the input check is
    bypassed) is reported with its distance, not with a lower bound."""
    monkeypatch.setattr(dominate, "is_k_step_dominating", lambda g, dom, j: True)
    p20 = path_graph(20)
    with pytest.raises(InvariantViolation, match="at distance 10 > 5"):
        connect_two_step(p20, p20, [0, 10])


class _CountingHeap:
    """``heapq`` for ``dominate``, counting the pushes."""

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    heappop = staticmethod(heapq.heappop)


def test_merge_heap_pushes_pinned_counts(monkeypatch):
    # pinned so that queueing a pair before its balls meet shows up as a
    # larger count, not only as wall time. With lower-bound entries for the
    # pairs whose balls had not met, the pushes were 15 and 2,270
    heap = _CountingHeap()
    monkeypatch.setattr(dominate, "heapq", heap)
    p14 = path_graph(14)  # merges at distances 3, 5 and 5
    connect_two_step(p14, p14, [0, 3, 8, 13])
    assert heap.pushes == 4
    heap.pushes = 0
    g = gnp_connected_graph(600, 16 / 599, seed=1)
    for part in split_k(g, 3).parts:
        connect_two_step(g, part, greedy_two_step_dominating(part).vertices)
    assert heap.pushes == 1411


def grown_set(g: Graph, rnd) -> tuple[int, ...]:
    """A connected 2-step dominating set grown from a random vertex by
    random neighbours."""
    adj = sorted_rows(g)
    grown = {rnd.randrange(g.n)}
    while any(d is None or d > 2 for d in ref_bfs(g, grown)):
        grown.add(rnd.choice(sorted({w for v in grown for w in adj[v]} - grown)))
    return tuple(sorted(grown))


@settings(max_examples=120, deadline=None)
@given(any_graphs, st.integers(1, 4), st.none() | st.randoms(use_true_random=False))
def test_union_connect_matches_reference(g, k, rnd):
    """On the connected sets of split_k's k parts, or (given ``rnd``) on k
    grown sets: on dense graphs those are small and often far enough apart
    to need connectors, which the parts' sets rarely are."""
    if rnd is None:
        sets = [
            connect_two_step(g, part, greedy_two_step_dominating(part).vertices).vertices
            for part in split_k(g, k).parts
        ]
    else:
        sets = [grown_set(g, rnd) for _ in range(k)]
    certs = [DominationCertificate(g, vs, "step", 2, True) for vs in sets]
    assert union_connect(g, certs).vertices == ref_union_connect(g, sets)


@settings(max_examples=120, deadline=None)
@given(any_graphs, st.integers(0, 6))
def test_greedy_connected_k_matches_reference(g, j):
    got = greedy_connected_k_dominating(g, j).vertices
    assert got == ref_greedy_connected_k(g, j)


# ---------------------------------------------------------------------------
# Pinned outputs at n = 600


def _digest(vertices) -> str:
    return hashlib.sha256(",".join(map(str, vertices)).encode()).hexdigest()


#: sha256 of the comma-joined sorted vertex ids, recorded with the
#: non-incremental constructions: (pipeline core, greedy k-dominating set).
PINNED = {
    2: (
        "ef58d97e7315c75898d865626e2f8dfb15bdcc7cd10d22666cf1f5fdc08ccf0e",
        "de82d95513b334a45b4bc7ca64786b4b83f9485bb3268b63c5a5491307bc0556",
    ),
    3: (
        "359fabaf0572c47636fef1c4abbf58db0c9868b4e732837e7a138a09bc91f277",
        "3e5fb0ee09d376bdff54b1a36a6ed95d23f0b52e531601b2cfc836b88743dd0d",
    ),
    4: (
        "ea52c61c85897788a60770a63886a6189b356cf8f38598c69c09feeef5bf4ef7",
        "83d6fa43f21718ec8eff29b32d99fca63adc70ea89fb3dbe254d77352eab1b79",
    ),
}


@pytest.mark.parametrize("k", sorted(PINNED))
def test_pinned_cores_at_n600(k):
    g = gnp_connected_graph(600, 16 / 599, seed=3)
    _, trace = color_pipeline(g, k)
    kdom = greedy_connected_k_dominating(g, k)
    assert (_digest(trace.core), _digest(kdom.vertices)) == PINNED[k]


# ---------------------------------------------------------------------------
# Invariant checks survive python -O


def test_invariant_violation_fires_under_optimize():
    script = textwrap.dedent(
        """
        import sys
        from rainbowindex import InvariantViolation, path_graph
        import rainbowindex.dominate as dominate

        if __debug__:
            sys.exit("not running under -O")
        dominate.shortest_path_between_masks = lambda g, a, b: list(range(7))
        g = path_graph(10)
        try:
            dominate.connect_two_step(g, g, [0, 5, 9])
        except InvariantViolation as exc:
            print("raised:", exc)
            sys.exit(0)
        sys.exit("connect_two_step accepted a 7-vertex merge path")
        """
    )
    src = str(Path(rainbowindex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "raised:" in proc.stdout
