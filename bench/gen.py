"""Seeded input generator for the benchmark.

Everything here uses only the standard library, never ``rainbowindex``, so a
change to the library cannot change what a workload feeds it. Graphs are
G(n, p) retried until connected; certify colorings follow the paper's
k-dominating leg scheme and are built here, not by the library.
"""

from __future__ import annotations

import random
from collections import deque


def connected_gnp(rng: random.Random, n: int, p: float, tries: int = 200):
    """Sorted edge list of a connected G(n, p) drawn from ``rng``."""
    for _ in range(tries):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        if is_connected(n, adjacency(n, edges)):
            return edges
    raise RuntimeError(f"no connected G({n}, {p}) in {tries} tries")


def connected_gnm(rng: random.Random, n: int, m: int, tries: int = 200):
    """Sorted edge list of a connected graph drawn uniformly with m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(tries):
        edges = sorted(rng.sample(pairs, m))
        if is_connected(n, adjacency(n, edges)):
            return edges
    raise RuntimeError(f"no connected G({n}, m={m}) in {tries} tries")


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, sources, allowed=None) -> dict[int, int]:
    """Distances from ``sources``, walking only inside ``allowed`` if given."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist and (allowed is None or w in allowed):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_connected(n: int, adj, within=None) -> bool:
    vertices = range(n) if within is None else within
    start = next(iter(vertices), None)
    if start is None:
        return False
    return len(bfs(adj, [start], within)) == (n if within is None else len(within))


def diameter(n: int, adj) -> int:
    return max(max(bfs(adj, [v]).values()) for v in range(n))


def format_edges(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def format_colors(n: int, colors: dict, count: int) -> str:
    lines = [f"{n} {len(colors)} {count}\n"]
    lines.extend(f"{u} {v} {c}\n" for (u, v), c in sorted(colors.items()))
    return "".join(lines)


def connected_k_dominating(n: int, adj, k: int) -> set[int]:
    """Connected set whose outside vertices all have >= k neighbours in it.

    Grows from vertex 0, adding the frontier vertex that completes the most
    outside vertices (ties to the lowest id). Deliberately not the library's
    greedy, so the certify inputs do not move when the library changes.
    """
    dom = {0}
    inside = [0] * n
    for w in adj[0]:
        inside[w] += 1

    def short(v):
        return v not in dom and inside[v] < k

    while any(short(v) for v in range(n)):
        frontier = sorted({w for v in dom for w in adj[v] if w not in dom})
        best = min(frontier, key=lambda w: (-sum(short(x) for x in adj[w]), w))
        dom.add(best)
        for w in adj[best]:
            inside[w] += 1
    return dom


def leg_coloring(n: int, edges, k: int) -> tuple[dict, int]:
    """The paper's k-dominating leg scheme: every outside vertex gets legs
    coloured 1..k into a connected k-dominating set D, a BFS tree of D gets
    fresh colours above k, and every other edge takes colour 1."""
    adj = adjacency(n, edges)
    dom = connected_k_dominating(n, adj, k)
    colors: dict[tuple[int, int], int] = {}
    for v in range(n):
        if v in dom:
            continue
        feet = sorted(w for w in adj[v] if w in dom)
        for i, foot in enumerate(feet[:k], start=1):
            colors[(min(v, foot), max(v, foot))] = i
    parent = bfs_parents(adj, min(dom), dom)
    tree = sorted((min(v, p), max(v, p)) for v, p in parent.items())
    for idx, e in enumerate(tree):
        colors[e] = k + 1 + idx
    for e in edges:
        colors.setdefault(e, 1)
    return colors, k + len(tree)


def leg_instance(rng: random.Random, n: int, m: int, k: int, core: int, tries: int = 1000):
    """A connected G(n, m) whose leg colouring has a dominating set of exactly
    ``core`` vertices, with that colouring and its colour count."""
    for _ in range(tries):
        edges = connected_gnm(rng, n, m)
        colors, count = leg_coloring(n, edges, k)
        if count - k + 1 == core:
            return edges, colors, count
    raise RuntimeError(f"no G({n}, m={m}) with a {core}-vertex leg core in {tries} tries")


def bfs_parents(adj, root: int, allowed) -> dict[int, int]:
    parent: dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w in allowed and w not in seen:
                seen.add(w)
                parent[w] = v
                queue.append(w)
    return parent


def plant_defect(rng: random.Random, n: int, edges, colors: dict) -> tuple[int, int]:
    """Give two non-adjacent vertices one shared colour on every incident
    edge, so no tree holding both is rainbow. Returns the pair."""
    edge_set = set(edges)
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) not in edge_set
    ]
    a, b = rng.choice(pairs)
    for e in edges:
        if a in e or b in e:
            colors[e] = 1
    return a, b
