"""Simple undirected graphs: construction, generators, edge-list text I/O,
and metric computations (shortest paths, step neighborhoods, Steiner
distances and diameters).

Vertices are the integers 0..n-1. Graphs are immutable; every operation in
this module is a pure function, so results may be computed concurrently.
All tie-breaking (BFS order, witness choice) prefers the lowest vertex id,
which makes every output reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import random
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]

#: gnp generation retries this many derived sub-seeds before giving up.
GNP_RETRY_CAP = 64


class ParseError(ValueError):
    """Malformed edge-list or coloring document."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class GenerationError(RuntimeError):
    """Random generation could not satisfy its constraints (retry cap hit)."""


class InvariantViolation(RuntimeError):
    """A construction broke a guarantee it certifies (a bug, not bad input).

    Raised explicitly rather than through ``assert``, so the checks also run
    under ``python -O``.
    """


def edge(u: int, v: int) -> Edge:
    """Normalized edge: endpoints in ascending order."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    ``edges`` holds normalized pairs (u, v) with u < v; loops and duplicates
    are rejected at construction time.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"invalid edge ({u}, {v}) for n={self.n}")

    @staticmethod
    def build(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, normalizing order."""
        normalized = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            normalized.add(edge(u, v))
        return Graph(n, frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(lst)) for lst in lists)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        """Adjacency as bitmasks, for the search-heavy callers."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(len(lst) for lst in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum id."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components) == 1

    def spanning_subgraph(self, edge_subset: Iterable[Edge]) -> "Graph":
        """Subgraph on the full vertex set keeping only the given edges."""
        subset = frozenset(edge_subset)
        if not subset <= self.edges:
            raise ValueError("edge subset contains edges not in the graph")
        return Graph(self.n, subset)


# ---------------------------------------------------------------------------
# Shortest-path metrics


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int | None]:
    """Distance from the source set to every vertex; None when unreachable."""
    dist: list[int | None] = [None] * g.n
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if not 0 <= s < g.n:
            raise ValueError(f"vertex {s} out of range")
        dist[s] = 0
        queue.append(s)
    if not queue:
        raise ValueError("source set must be nonempty")
    while queue:
        v = queue.popleft()
        d = dist[v] + 1  # type: ignore[operator]
        for w in g.adj[v]:
            if dist[w] is None:
                dist[w] = d
                queue.append(w)
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path edge count between u and v; None when disconnected."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    return bfs_distances(g, [u])[v]


def set_distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> int | None:
    """min d(x, y) over x in A, y in B; 0 iff the sets intersect."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ValueError("set_distance requires nonempty sets")
    if sa & sb:
        return 0
    dist = bfs_distances(g, sa)
    best = None
    for v in sb:
        d = dist[v]
        if d is not None and (best is None or d < best):
            best = d
    return best


def k_step_neighborhood(g: Graph, dom: Iterable[int], j: int) -> tuple[int, ...]:
    """Vertices at distance exactly j from the set (disjoint from lower levels)."""
    if j < 1:
        raise ValueError("step must be >= 1")
    dist = bfs_distances(g, dom)
    return tuple(v for v in range(g.n) if dist[v] == j)


def diameter(g: Graph) -> int:
    """Maximum pairwise distance; requires a connected graph."""
    if not g.is_connected:
        raise ValueError("diameter requires a connected graph")
    best = 0
    for v in range(g.n):
        dist = bfs_distances(g, [v])
        best = max(best, max(d for d in dist if d is not None))
    return best


def shortest_path_between_sets(
    g: Graph, a: Iterable[int], b: Iterable[int]
) -> list[int] | None:
    """One shortest path from set A to set B (vertex list), or None.

    Deterministic: multi-source BFS with sorted sources and sorted adjacency,
    first arrival wins.
    """
    sa, sb = sorted(set(a)), set(b)
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for s in sa:
        parent[s] = None
        queue.append(s)
    hit = None
    for s in sa:
        if s in sb:
            hit = s
            break
    while hit is None and queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in parent:
                parent[w] = v
                if w in sb:
                    hit = w
                    queue.clear()
                    break
                queue.append(w)
    if hit is None:
        return None
    path = [hit]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def bfs_tree_edges(g: Graph, vertices: Iterable[int]) -> list[Edge]:
    """Edges of a BFS spanning tree of the induced subgraph, rooted at the
    lowest id. Raises if the induced subgraph is disconnected."""
    vs = sorted(set(vertices))
    if not vs:
        return []
    inside = set(vs)
    root = vs[0]
    seen = {root}
    tree: list[Edge] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in inside and w not in seen:
                seen.add(w)
                tree.append(edge(v, w))
                queue.append(w)
    if len(seen) != len(vs):
        raise ValueError("induced subgraph is disconnected")
    return tree


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph with vertices relabeled to 0.. by ascending id.

    Returns the new graph and the list mapping new ids back to originals.
    """
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    inside = set(vs)
    sub_edges = [
        (index[u], index[v]) for u, v in g.edges if u in inside and v in inside
    ]
    return Graph.build(len(vs), sub_edges), vs


# ---------------------------------------------------------------------------
# Steiner distance and diameter


@dataclass(frozen=True)
class SteinerWitness:
    """A tree achieving a Steiner distance: edge set plus the terminal set."""

    edges: frozenset[Edge]
    terminals: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> frozenset[int]:
        vs = set(self.terminals)
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        return frozenset(vs)

    def is_valid_for(self, g: Graph) -> bool:
        """Tree containing the terminals, using only edges of g."""
        if not self.edges <= g.edges:
            return False
        vs = self.vertices()
        if len(self.edges) != len(vs) - 1:
            return False
        if not self.edges:
            return len(vs) == 1
        # connectivity over the witness edges
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        start = next(iter(vs))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == vs


def _steiner_dp(g: Graph, terminals: list[int]) -> tuple[int, SteinerWitness]:
    """Terminal-set dynamic program over (vertex, terminal-subset) states.

    dp[mask][v] = minimum edges of a tree containing {terminals in mask, v};
    transitions merge two submask trees at v or grow by one edge.
    """
    n = g.n
    k = len(terminals)
    full = (1 << k) - 1
    INF = n * n + 1
    dp = [[INF] * n for _ in range(full + 1)]
    choice: list[list[tuple | None]] = [[None] * n for _ in range(full + 1)]
    for i, t in enumerate(terminals):
        dp[1 << i][t] = 0
    for mask in range(1, full + 1):
        row = dp[mask]
        ch = choice[mask]
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # canonical half to avoid double enumeration
                other = mask ^ sub
                ds, do = dp[sub], dp[other]
                for v in range(n):
                    cand = ds[v] + do[v]
                    if cand < row[v]:
                        row[v] = cand
                        ch[v] = ("merge", sub)
            sub = (sub - 1) & mask
        heap = [(row[v], v) for v in range(n) if row[v] < INF]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v]:
                continue
            nd = d + 1
            for w in g.adj[v]:
                if nd < row[w]:
                    row[w] = nd
                    ch[w] = ("grow", v)
                    heapq.heappush(heap, (nd, w))
    best_v = min(range(n), key=lambda v: (dp[full][v], v))
    value = dp[full][best_v]
    if value >= INF:
        raise ValueError("terminals are not connected in the graph")
    edges_out: set[Edge] = set()
    stack = [(full, best_v)]
    while stack:
        mask, v = stack.pop()
        act = choice[mask][v]
        if act is None:
            continue
        if act[0] == "grow":
            u = act[1]
            edges_out.add(edge(u, v))
            stack.append((mask, u))
        else:
            sub = act[1]
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
    if len(edges_out) != value:
        raise RuntimeError("steiner reconstruction mismatch")
    return value, SteinerWitness(frozenset(edges_out), frozenset(terminals))


def _steiner_enumerate(g: Graph, terminals: list[int]) -> tuple[int, SteinerWitness]:
    """Exhaustive check over connected vertex supersets, smallest first."""
    base = set(terminals)
    others = [v for v in range(g.n) if v not in base]
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            vs = sorted(base.union(combo))
            try:
                tree = bfs_tree_edges(g, vs)
            except ValueError:
                continue
            return len(vs) - 1, SteinerWitness(
                frozenset(tree), frozenset(terminals)
            )
    raise ValueError("terminals are not connected in the graph")


def steiner_distance(
    g: Graph, terminals: Iterable[int], method: str = "auto"
) -> tuple[int, SteinerWitness]:
    """Minimum size of a tree containing the terminals, with a witness tree.

    ``method`` selects the algorithm: "dp" (terminal-subset dynamic program,
    exponential in |S| only), "enumerate" (vertex-superset sweep, exponential
    in n - |S|, n <= 20), or "auto". Both paths are exact and cross-checked
    in the test suite.
    """
    ts = sorted(set(terminals))
    if not ts:
        raise ValueError("terminal set must be nonempty")
    for t in ts:
        if not 0 <= t < g.n:
            raise ValueError(f"terminal {t} out of range")
    if not g.is_connected:
        raise ValueError("steiner_distance requires a connected graph")
    if len(ts) == 1:
        return 0, SteinerWitness(frozenset(), frozenset(ts))
    if method == "auto":
        method = "dp" if len(ts) <= 10 else "enumerate"
    if method == "dp":
        return _steiner_dp(g, ts)
    if method == "enumerate":
        if g.n > 20:
            raise ValueError("enumeration path limited to n <= 20")
        return _steiner_enumerate(g, ts)
    raise ValueError(f"unknown method {method!r}")


def steiner_diameter(g: Graph, k: int) -> int:
    """Maximum Steiner distance over all k-subsets of vertices."""
    if not g.is_connected:
        raise ValueError("steiner_diameter requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    best = 0
    for combo in itertools.combinations(range(g.n), k):
        d, _ = steiner_distance(g, combo)
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Generators


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Graph.build(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph.build(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph requires n >= 1")
    return Graph.build(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph requires a, b >= 1")
    return Graph.build(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(10, outer + spokes + inner)


def gnp_connected_graph(
    n: int, p: float, seed: int = 0, retry_cap: int = GNP_RETRY_CAP
) -> Graph:
    """Erdos-Renyi G(n, p), retried with derived sub-seeds until connected.

    Deterministic for a fixed (n, p, seed); raises GenerationError when the
    retry cap is exhausted.
    """
    if n < 1:
        raise ValueError("gnp requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("gnp requires 0 <= p <= 1")
    for attempt in range(retry_cap):
        rng = random.Random(seed * 1_000_003 + attempt)
        pairs = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        g = Graph.build(n, pairs)
        if g.is_connected:
            return g
    raise GenerationError(
        f"no connected G({n}, {p}) found in {retry_cap} attempts (seed {seed})"
    )


def generate(
    family: str,
    *,
    n: int | None = None,
    a: int | None = None,
    b: int | None = None,
    p: float | None = None,
    seed: int = 0,
) -> Graph:
    """Dispatch to the named generator family.

    Families: path, cycle, complete, complete_bipartite, petersen, gnp.
    Output is deterministic for fixed (family, params, seed).
    """
    if family == "path":
        return path_graph(_need(n, "n"))
    if family == "cycle":
        return cycle_graph(_need(n, "n"))
    if family == "complete":
        return complete_graph(_need(n, "n"))
    if family == "complete_bipartite":
        return complete_bipartite_graph(_need(a, "a"), _need(b, "b"))
    if family == "petersen":
        return petersen_graph()
    if family == "gnp":
        if p is None:
            raise ValueError("gnp requires p")
        return gnp_connected_graph(_need(n, "n"), p, seed)
    raise ValueError(f"unknown family {family!r}")


def _need(value, name):
    if value is None:
        raise ValueError(f"missing required parameter {name}")
    return value


# ---------------------------------------------------------------------------
# Edge-list text format
#
# Line 1: "n m"; then m lines "u v" with 0 <= u, v < n and u != v. Lines
# starting with '#' are ignored; duplicate edges collapse with a warning.


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    edges: set[Edge] = set()
    count = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError("expected header 'n m'", line_no)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError("header fields must be integers", line_no) from None
            if n < 0 or m < 0:
                raise ParseError("header fields must be nonnegative", line_no)
            header = (n, m)
            continue
        n, m = header
        if count >= m:
            raise ParseError(f"more than the declared {m} edge lines", line_no)
        if len(fields) != 2:
            raise ParseError("expected edge line 'u v'", line_no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line_no) from None
        if u == v:
            raise ParseError(f"loop edge ({u}, {v})", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in ({u}, {v})", line_no)
        e = edge(u, v)
        if e in edges:
            warnings.warn(f"duplicate edge {e} on line {line_no} collapsed")
        edges.add(e)
        count += 1
    if header is None:
        raise ParseError("empty document, expected header 'n m'")
    n, m = header
    if count != m:
        raise ParseError(f"declared {m} edges but found {count}")
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
