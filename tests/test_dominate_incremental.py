"""The incremental dominate constructions against from-scratch references.

The references below restate the plain algorithms: a full BFS after every
added vertex, every component pair measured again in every merge round, and
a predicate rescan plus frontier rebuild per greedy step. They use nothing
from the library but ``Graph``, so a bookkeeping slip in the incremental
versions cannot hide behind a shared helper.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowindex
from rainbowindex import (
    Graph,
    color_pipeline,
    connect_two_step,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    greedy_two_step_dominating,
    split_k,
)

# ---------------------------------------------------------------------------
# From-scratch references


def ref_bfs(g: Graph, sources) -> list[int | None]:
    dist: list[int | None] = [None] * g.n
    queue = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def ref_components_within(g: Graph, dom) -> list[tuple[int, ...]]:
    remaining = set(dom)
    comps = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w in remaining and w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        comps.append(tuple(sorted(comp)))
    return comps


def ref_shortest_path(g: Graph, a, b) -> list[int]:
    """First-arrival BFS path from sorted sources in A to the first vertex of B."""
    sb = set(b)
    parent: dict[int, int | None] = {}
    queue = deque()
    for s in sorted(set(a)):
        parent[s] = None
        queue.append(s)
    hit = next((s for s in sorted(set(a)) if s in sb), None)
    while hit is None:
        v = queue.popleft()
        for w in g.adj[v]:
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


def ref_connect_two_step(g: Graph, dominating) -> tuple[int, ...]:
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
        dom.update(ref_shortest_path(g, comps[i], comps[j])[1:-1])


def ref_greedy_connected_k(g: Graph, j: int) -> tuple[int, ...]:
    def satisfied(dom):
        return all(
            sum(1 for w in g.adj[v] if w in dom) >= j
            for v in range(g.n)
            if v not in dom
        )

    dom = {min(range(g.n), key=lambda v: (-g.degree(v), v))}
    while not satisfied(dom):
        frontier = sorted({w for v in dom for w in g.adj[v] if w not in dom})

        def gain(w):
            return sum(
                1
                for v in g.adj[w]
                if v not in dom and sum(1 for x in g.adj[v] if x in dom) == j - 1
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


@settings(max_examples=80, deadline=None)
@given(sparse_connected_graphs(), st.integers(1, 4))
def test_greedy_two_step_matches_reference(g, k):
    for part in (g, *split_k(g, k).parts):
        assert greedy_two_step_dominating(part).vertices == ref_greedy_two_step(part)


@settings(max_examples=80, deadline=None)
@given(sparse_connected_graphs(), st.integers(1, 4))
def test_connect_two_step_matches_reference(g, k):
    for part in (g, *split_k(g, k).parts):
        dom = ref_greedy_two_step(part)
        got = connect_two_step(g, part, dom).vertices
        assert got == ref_connect_two_step(g, dom)


@settings(max_examples=80, deadline=None)
@given(sparse_connected_graphs(), st.integers(0, 4))
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
        dominate.shortest_path_between_sets = lambda g, a, b: list(range(7))
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
