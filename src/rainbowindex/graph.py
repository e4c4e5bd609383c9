"""Simple undirected graphs: construction, generators, edge-list text I/O,
and metric computations (shortest paths, step neighborhoods, Steiner
distances and diameters).

``spread`` is the one bitmask BFS step. ``balls`` grows with it the
cumulative distance layers of a source set, and ``component_masks`` the
components of a vertex mask (``vertex_mask`` of a vertex list), each from
its lowest vertex; the latter is the one connectivity test, serving
``Graph.is_connected``, the tree, certificate, core and Steiner set checks
and the dominate constructions. The first-arrival BFS, ``_first_arrivals``,
serves only forests (``bfs_forest``) and paths
(``shortest_path_between_masks``): it gives the first-arrival parents of
one BFS from all roots at once, taking each row's new vertices in
ascending order, as a walk over sorted adjacency would. The path search
grows balls from both sets until they meet and runs that BFS only on the
vertices of shortest paths between them.
Only ``_relax`` walks its own layers, because its sources join the BFS at
different times and it writes each vertex's row value while it walks a
layer; a ``spread`` step would walk each layer twice. It lowers the rows of
the one Dreyfus-Wagner engine, ``_steiner_rows``, which serves both
``steiner_distance`` (walking a witness back from the values) and
``steiner_diameter``, unless ``steiner_diameter_steps`` estimates the
diameter's removal table over the complements of the k-sets cheaper.

A ``Graph`` stores one form of its edges, its ascending edge order or its
bitmask rows, and derives the other (one OR pass, or one walk over the
rows) and its edge set on first read; its degrees, components and BFS read
the rows. The public constructor checks every edge. One private way in,
``Graph._unchecked``, skips the check for edges already checked: a
``split_two`` side, stored as rows taken from a checked graph, and a graph
read in bulk from a canonical document, its records checked and sorted in
C-level passes, stored as that edge order. ``parse_edge_list`` reads a
document in the form ``format_edge_list`` writes (in any record order) in
bulk, and hands anything else to the line reader ``parse_records``, the
only place that raises ParseError or warns of a duplicate edge.

Vertices are the integers 0..n-1. Graphs are immutable; every operation in
this module is a pure function, so results may be computed concurrently.
All tie-breaking (BFS order, witness choice) prefers the lowest vertex id,
which makes every output reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import add, lt, ne
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


class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    A graph stores ``n``, ``m`` and one form of its edges, the one it was
    built from: the checked constructor and the bulk reader store the pairs
    (u, v), u < v, in ascending order, and a ``split_two`` side stores its
    bitmask rows. The other form, ``adj_bits`` or ``sorted_edges()``, is
    derived from the stored one, and the ``edges`` frozenset from the edge
    order, each on first read and at most once. Equality and hashing are on
    (n, edges). Assigning an attribute raises AttributeError.
    """

    def __init__(self, n: int, edges: Iterable[Edge]):
        """The graph on the pairs ``edges``, each (u, v) with 0 <= u < v < n;
        ValueError names the lowest pair out of range, reversed or repeated."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        order = sorted((u, v) for u, v in edges)
        for i, (u, v) in enumerate(order):
            if not 0 <= u < v < n:
                raise ValueError(f"invalid edge ({u}, {v}) for n={n}")
            if i and order[i - 1] == (u, v):
                raise ValueError(f"repeated edge ({u}, {v})")
        self.__dict__.update(n=n, m=len(order), _edge_order=tuple(order))

    @classmethod
    def _unchecked(cls, n: int, *, order=(), rows=None) -> "Graph":
        """A graph stored as given, with no per-edge check: as its ``rows``,
        a tuple of symmetric bitmask rows taken from a checked graph on the
        same n vertices, or else as its edge ``order``, a tuple of pairs
        (u, v) with 0 <= u < v < n in strictly ascending order. The caller
        vouches for the form."""
        g = object.__new__(cls)
        if rows is None:
            g.__dict__.update(n=n, m=len(order), _edge_order=order)
        else:
            g.__dict__.update(n=n, m=sum(map(int.bit_count, rows)) // 2, adj_bits=rows)
        return g

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Graph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.sorted_edges())})"

    @staticmethod
    def build(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, normalizing order and
        collapsing repeats; a loop (u, u) is an invalid edge."""
        return Graph(n, {edge(u, v) for u, v in pairs})

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._edge_order)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        """Adjacency as bitmasks, for the search-heavy callers: one OR pass
        over the edge order. It shifts each bit as it goes; a table of all
        n bits would cost O(n^2) bits however few the edges are (a star, an
        edgeless graph)."""
        rows = [0] * self.n
        for u, v in self._edge_order:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    @cached_property
    def min_degree(self) -> int:
        return min(map(int.bit_count, self.adj_bits), default=0)

    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in ascending order, as a tuple; every caller shares one
        order."""
        return self._edge_order

    @cached_property
    def _edge_order(self) -> tuple[Edge, ...]:
        # each row's higher neighbours, rows in order
        return tuple(
            (u, v)
            for u, row in enumerate(self.adj_bits)
            for v in set_bits(row >> u + 1 << u + 1)
        )

    @cached_property
    def is_connected(self) -> bool:
        return len(component_masks(self, (1 << self.n) - 1)) <= 1


# ---------------------------------------------------------------------------
# Shortest-path metrics


def balls(g: Graph, sources: Iterable[int]) -> list[int]:
    """BFS by bitmasks: entry r holds every vertex within distance r of the
    sources; the list ends once the reachable part is covered. Raises
    ValueError for a source outside 0..n-1 or an empty source set."""
    mask = vertex_mask(g, sources)
    if not mask:
        raise ValueError("source set must be nonempty")
    adj_bits = g.adj_bits
    layers = [mask]
    seen = frontier = mask
    while True:
        frontier = spread(frontier, adj_bits) & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(seen)


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The bitmask of ``vertices``; ValueError names the lowest vertex
    outside 0..n-1."""
    mask = 0
    for v in sorted(set(vertices)):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def check_k(g: Graph, k: int) -> None:
    """ValueError unless g is connected and 2 <= k <= n."""
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")


#: Masks up to this many bits walk their set bits by peeling off the
#: lowest one; wider ones are spelled out in C by bin() and walked with
#: find(). Over 1 to all bits set, peeling took 0.36-0.74x the time of
#: that walk up to 30 bits (one CPython digit), 0.72-1.08x from 31 to 64
#: (the less, the fewer bits set) and 0.79-1.19x past 64, mostly above 1
#: (``BENCH_36.json``).
_PEEL_BITS = 64


def spread(mask: int, adj_bits: tuple[int, ...]) -> int:
    """One BFS step: the union of the adjacency masks of the vertices in
    ``mask`` (``Graph.adj_bits``)."""
    grown = 0
    if mask.bit_length() <= _PEEL_BITS:
        while mask:
            low = mask & -mask
            grown |= adj_bits[low.bit_length() - 1]
            mask ^= low
        return grown
    bits = bin(mask)
    top = len(bits) - 1
    i = bits.find("1", 2)
    while i != -1:
        grown |= adj_bits[top - i]
        i = bits.find("1", i + 1)
    return grown


def set_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    if mask.bit_length() <= _PEEL_BITS:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i != -1:
        yield i
        i = bits.find("1", i + 1)


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path edge count between u and v; None when disconnected.
    ValueError names the lower vertex outside 0..n-1."""
    vertex_mask(g, (u, v))
    return next((r for r, ball in enumerate(balls(g, [u])) if ball >> v & 1), None)


def k_step_neighborhood(g: Graph, dom: Iterable[int], j: int) -> tuple[int, ...]:
    """Vertices at distance exactly j from the set (disjoint from lower levels)."""
    if j < 1:
        raise ValueError("step must be >= 1")
    layers = balls(g, dom)
    if j >= len(layers):
        return ()
    return tuple(set_bits(layers[j] & ~layers[j - 1]))


def _first_arrivals(
    g: Graph, roots: int, unseen: int
) -> tuple[dict[int, int | None], int]:
    """Multi-source BFS over the bitmask rows, from the vertices of the mask
    ``roots`` at once and inside the vertex mask ``unseen`` (which holds the
    roots). Returns each reached vertex's first-arrival parent, None for a
    root, in discovery order, and the vertices of ``unseen`` left unreached.
    Each row's new vertices are taken in ascending order, so the BFS visits
    vertices as a walk over sorted adjacency would.
    """
    adj_bits = g.adj_bits
    queue = list(set_bits(roots))
    parent: dict[int, int | None] = dict.fromkeys(queue)
    unseen &= ~roots
    for v in queue:  # the loop also visits what it appends
        fresh = adj_bits[v] & unseen
        if fresh:
            unseen ^= fresh
            # peel the lowest bit: a row holds few new vertices, and on a
            # wide sparse row this beats spelling the mask out with bin()
            while fresh:
                low = fresh & -fresh
                w = low.bit_length() - 1
                parent[w] = v
                queue.append(w)
                fresh ^= low
    return parent, unseen


def shortest_path_between_masks(g: Graph, amask: int, bmask: int) -> list[int] | None:
    """One shortest path (vertex list) from vertex-mask set A to set B, or None.

    Deterministic: the path of a multi-source BFS with sorted sources and
    sorted adjacency, first arrival wins. Raises ValueError for a bit
    outside 0..n-1.

    That BFS runs only inside the corridor: the vertices v with
    d(A, v) + d(v, B) = d(A, B). Bitmask balls grow from A and from B,
    the smaller frontier first, until they meet at distance d; sweeping
    back from the meeting vertices through each side's balls gives the
    corridor. Every first-arrival parent of a corridor vertex lies in the
    corridor and keeps its queue rank, so the path is the one a BFS of the
    whole graph finds, and the search visits only what lies between A and B.
    """
    if amask < 0 or bmask < 0 or (amask | bmask) >> g.n:
        raise ValueError("vertex mask holds a bit outside 0..n-1")
    if not amask or not bmask:
        return None
    adj_bits = g.adj_bits
    sides = ([amask], [bmask])  # cumulative balls around A and around B
    fronts = [amask, bmask]
    while not sides[0][-1] & sides[1][-1]:
        s = fronts[1].bit_count() < fronts[0].bit_count()
        layers = sides[s]
        fronts[s] = spread(fronts[s], adj_bits) & ~layers[-1]
        if not fronts[s]:
            return None
        layers.append(layers[-1] | fronts[s])
    meet = corridor = sides[0][-1] & sides[1][-1]
    for layers in sides:
        # a neighbour in the next smaller ball is one step nearer this side
        # and at most one step farther from the other: still on the corridor
        layer = meet
        for ball in reversed(layers[:-1]):
            layer = spread(layer, adj_bits) & ball
            corridor |= layer
    parent, _ = _first_arrivals(g, amask & corridor, corridor)
    end = next((v for v in parent if bmask >> v & 1), None)
    if end is None:
        raise InvariantViolation("corridor search missed the set it met")
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return path[::-1]


def component_masks(g: Graph, mask: int) -> list[int]:
    """Components of the subgraph induced on the vertex bitmask ``mask``, as
    bitmasks ordered by minimum id: each grown by ``spread`` steps inside
    the mask from its lowest vertex not yet reached. Raises ValueError for
    a bit outside 0..n-1."""
    if mask < 0 or mask >> g.n:
        raise ValueError("vertex mask holds a bit outside 0..n-1")
    adj_bits = g.adj_bits
    comps = []
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier:
            frontier = spread(frontier, adj_bits) & mask
            mask ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def bfs_forest(g: Graph, vertices: Iterable[int]) -> dict[int, int | None]:
    """BFS forest of the subgraph induced on ``vertices``.

    Each tree is rooted at the lowest vertex not yet reached, so each root is
    the minimum of its component, and the first arrival wins. Returns each
    vertex's parent (None for a root) in discovery order. Raises ValueError
    for a vertex outside 0..n-1.
    """
    unseen = vertex_mask(g, vertices)
    parent: dict[int, int | None] = {}
    while unseen:
        tree, unseen = _first_arrivals(g, unseen & -unseen, unseen)
        parent.update(tree)
    return parent


def bfs_tree_edges(g: Graph, vertices: Iterable[int]) -> list[Edge]:
    """Edges of a BFS spanning tree of the induced subgraph, rooted at the
    lowest id. Raises if the induced subgraph is disconnected."""
    forest = bfs_forest(g, vertices)
    tree = [edge(p, v) for v, p in forest.items() if p is not None]
    if len(tree) < len(forest) - 1:
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
class TreeWitness:
    """A tree containing a terminal set: a Steiner tree, or a rainbow tree
    under an edge coloring."""

    edges: frozenset[Edge]
    terminals: frozenset[int]

    def is_valid_for(self, g: Graph, coloring=None) -> bool:
        """Tree containing the terminals, using only edges of g; under a
        ``coloring`` of g, also with all its edge colors distinct."""
        if not is_tree_witness(g, self.edges, self.terminals):
            return False
        return coloring is None or len({coloring.colors[e] for e in self.edges}) == len(self.edges)


def is_tree_witness(g: Graph, edges: frozenset[Edge], terminals: Iterable[int]) -> bool:
    """True iff ``edges`` are edges of g that form one tree containing every
    terminal (a lone terminal with no edges is a tree)."""
    if not edges <= g.edges:
        return False
    vs = set(terminals)
    for u, v in edges:
        vs.add(u)
        vs.add(v)
    if len(edges) != len(vs) - 1 or not all(0 <= v < g.n for v in vs):
        return False
    return len(component_masks(Graph(g.n, edges), vertex_mask(g, vs))) == 1


def _splits(mask: int) -> Iterator[int]:
    """The part A of each split of the vertex set ``mask`` into A and
    mask - A with the lowest vertex in A, in descending order of A."""
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while sub:  # every proper submask of rest, with low added
        sub = (sub - 1) & rest
        yield low | sub


def _steiner_rows(
    g: Graph, universe: Iterable[int], top: int
) -> Iterator[tuple[int, list[int]]]:
    """Value-only Dreyfus-Wagner rows of a connected graph, smallest sets
    first: (mask, row) for every nonempty vertex set T of ``universe`` with
    at most ``top`` vertices, mask holding bit v for each v in T, where
    row[v] is the fewest edges of a tree containing T and v.

    A singleton's row starts at 0 on its vertex and n, beyond any distance
    of a connected graph, elsewhere; a larger T's at the least row_A +
    row_(T-A) over ``_splits`` of T. ``_relax`` lowers each. Only the rows
    still to be merged, those of fewer than ``top`` vertices, are kept.
    """
    rows: dict[int, list[int]] = {}
    for j in range(1, top + 1):
        for combo in itertools.combinations(universe, j):
            mask = sum(1 << v for v in combo)
            if j == 1:
                merged = [g.n] * g.n
                merged[combo[0]] = 0
            else:
                merged = None
                for a in _splits(mask):
                    pair = map(add, rows[a], rows[mask ^ a])
                    if merged is None:
                        merged = list(pair)
                    else:
                        merged = [x if x < y else y for x, y in zip(merged, pair)]
            row = _relax(merged, g.adj_bits)
            if j < top:
                rows[mask] = row
            yield mask, row


def _steiner_dp(g: Graph, terminals: list[int]) -> tuple[int, TreeWitness]:
    """Dreyfus-Wagner over the terminal sets (``_steiner_rows``), with a
    witness walked back from the values alone.

    The walk starts at the lowest-id vertex holding the least entry of the
    full set's row. At a set T and vertex v with entry d > 0 it takes the
    first split in ``_splits`` order whose two entries at v sum to d, and
    only if there is none, the edge to the lowest-id neighbour w with
    row_T[w] = d - 1.
    """
    rows = dict(_steiner_rows(g, terminals, len(terminals)))
    full = sum(1 << t for t in terminals)
    value = min(rows[full])
    edges_out: set[Edge] = set()
    stack = [(full, rows[full].index(value))]
    while stack:
        mask, v = stack.pop()
        row = rows[mask]
        d = row[v]
        if d == 0:
            continue
        for a in _splits(mask):
            if rows[a][v] + rows[mask ^ a][v] == d:
                stack += [(a, v), (mask ^ a, v)]
                break
        else:
            u = next((w for w in set_bits(g.adj_bits[v]) if row[w] == d - 1), None)
            if u is None:
                raise InvariantViolation("steiner row entry without a predecessor")
            edges_out.add(edge(u, v))
            stack.append((mask, u))
    if len(edges_out) != value:
        raise InvariantViolation("steiner reconstruction mismatch")
    return value, TreeWitness(frozenset(edges_out), frozenset(terminals))


def _steiner_enumerate(g: Graph, terminals: list[int]) -> tuple[int, TreeWitness]:
    """Exhaustive check over vertex supersets, smallest first: one
    ``component_masks`` walk per superset, and a BFS tree of the first
    connected one."""
    base = vertex_mask(g, terminals)
    others = [v for v in range(g.n) if not base >> v & 1]
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            mask = base | sum(1 << v for v in combo)
            if len(component_masks(g, mask)) == 1:
                tree = bfs_tree_edges(g, set_bits(mask))
                return len(tree), TreeWitness(frozenset(tree), frozenset(terminals))
    raise ValueError("terminals are not connected in the graph")


def steiner_distance(g: Graph, terminals: Iterable[int]) -> tuple[int, TreeWitness]:
    """Minimum size of a tree containing the terminals, with a witness tree.

    Two exact paths, cross-checked in the test suite: the Dreyfus-Wagner
    rows of the terminal sets (``_steiner_dp``), about 3^|S| split merges of
    n entries each, and a sweep over vertex supersets of S, at most
    2^(n - |S|) connectivity checks of up to n vertices each. The rows are
    taken when 3^|S| <= 2^(n - |S|) n: the factor n is counted on the
    sweep's side only, so the rule leans towards the rows.
    """
    ts = list(set_bits(vertex_mask(g, terminals)))
    if not ts:
        raise ValueError("terminal set must be nonempty")
    if not g.is_connected:
        raise ValueError("steiner_distance requires a connected graph")
    if len(ts) == 1:
        return 0, TreeWitness(frozenset(), frozenset(ts))
    if 3 ** len(ts) <= 2 ** (g.n - len(ts)) * g.n:
        return _steiner_dp(g, ts)
    return _steiner_enumerate(g, ts)


def steiner_diameter_steps(n: int, m: int, k: int) -> tuple[int, int]:
    """(rows, removal): estimated steps of ``steiner_diameter``'s two tables
    at n vertices and m edges. A j-set's row costs 2^(j-1) splits of n
    entries and a relaxation over m edges; a removal entry, with its walk,
    (2n + m)/3, the ratio measured in ``BENCH_36.json``."""
    rows = sum(math.comb(n, j) * (2 ** (j - 1) * n + m) for j in range(1, k))
    removal = sum(math.comb(n, j) for j in range(n - k + 1)) * (2 * n + m) // 3
    return rows, removal


def _relax(row: list[int], adj_bits: tuple[int, ...]) -> list[int]:
    """Lower ``row`` in place to min over u of row[u] + d(u, v), in a
    connected graph: a BFS in which each vertex v joins at time row[v]."""
    starts: dict[int, int] = {}
    for v, x in enumerate(row):
        starts[x] = starts.get(x, 0) | 1 << v
    everyone = (1 << len(row)) - 1
    seen = frontier = 0
    r = min(starts)
    while seen != everyone:
        reached = (frontier | starts.get(r, 0)) & ~seen
        frontier = 0
        for v in set_bits(reached):
            row[v] = r
            frontier |= adj_bits[v]
        seen |= reached
        r += 1
    return row


def _removal_table(g: Graph, k: int) -> int:
    """The least, over the (n-k)-sets U, of the most vertices of U whose
    removal leaves g connected: |U| if g - U is connected, else the largest
    entry of U less one vertex. g - U is connected only if g - U + v is for
    a v of U next to it, so only a U with an entry |U| - 1 below it walks."""
    everyone = (1 << g.n) - 1
    best = {0: 0}
    for j in range(1, g.n - k + 1):
        table = {}
        for combo in itertools.combinations([1 << v for v in range(g.n)], j):
            mask = sum(combo)
            most = max(map(best.__getitem__, map(mask.__xor__, combo)))
            if most == j - 1 and len(component_masks(g, everyone ^ mask)) == 1:
                most = j
            table[mask] = most
        best = table
    return min(best.values())


def steiner_diameter(g: Graph, k: int) -> int:
    """Maximum Steiner distance over all k-subsets of vertices.

    Takes whichever of two exact tables shared by all k-subsets
    ``steiner_diameter_steps`` estimates cheaper. The rows table holds the
    ``_steiner_rows`` of every vertex set T of at most k-1 vertices. A k-set
    S has Steiner distance row_(S-s)[s] for any s in S, and a smaller T's
    row never holds more, so the answer is the largest entry of any row.
    The removal table works on complements: a tree containing S spans a
    connected V - W with W inside V - S, so S has Steiner distance n - 1
    minus the most vertices of V - S whose removal leaves g connected.
    """
    check_k(g, k)
    rows, removal = steiner_diameter_steps(g.n, g.m, k)
    if rows <= removal:
        return max(max(row) for _, row in _steiner_rows(g, range(g.n), k - 1))
    return g.n - 1 - _removal_table(g, k)


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


def gnp_connected_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), retried with derived sub-seeds until connected.

    Deterministic for a fixed (n, p, seed); raises GenerationError when the
    retry cap is exhausted.
    """
    if n < 1:
        raise ValueError("gnp requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("gnp requires 0 <= p <= 1")
    for attempt in range(GNP_RETRY_CAP):
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
        f"no connected G({n}, {p}) found in {GNP_RETRY_CAP} attempts (seed {seed})"
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

#: The form ``format_edge_list`` writes: lines of two ASCII integers split by
#: one space, every line ending in a newline.
_CANONICAL_EDGE_LIST = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


def parse_records(
    text: str, header: str, record: str, not_integer: str
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Line-numbered integer records of an edge-list-style document.

    ``header`` names the header fields ("n m", "n m c"); every record has as
    many fields, the first two an edge's endpoints. Blank and '#' lines are
    skipped. Yields (line number, fields) for the header, then for each
    record. Raises ParseError, naming the line, for a malformed or negative
    header, a malformed record, a loop, an endpoint outside 0..n-1, a record
    beyond the declared m, and (naming the header) fewer than m records; and
    for a missing header. ``record`` and ``not_integer`` word the record
    errors.
    """
    width = len(header.split())
    n = m = count = header_line = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if count < 0:
            if len(fields) != width:
                raise ParseError(f"expected header '{header}'", line_no)
            try:
                values = tuple(map(int, fields))
            except ValueError:
                raise ParseError("header fields must be integers", line_no) from None
            if min(values) < 0:
                raise ParseError("header fields must be nonnegative", line_no)
            n, m = values[:2]
            count, header_line = 0, line_no
            yield line_no, values
            continue
        if count >= m:
            raise ParseError(f"more than the declared {m} edge lines", line_no)
        if len(fields) != width:
            raise ParseError(f"expected {record}", line_no)
        try:
            values = tuple(map(int, fields))
        except ValueError:
            raise ParseError(not_integer, line_no) from None
        u, v = values[:2]
        if u == v:
            raise ParseError(f"loop edge ({u}, {v})", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in ({u}, {v})", line_no)
        count += 1
        yield line_no, values
    if count < 0:
        raise ParseError(f"empty document, expected header '{header}'")
    if count != m:
        raise ParseError(f"declared {m} edges but found {count}", header_line)


def parse_edge_list(text: str) -> Graph:
    """The graph of an edge-list document.

    A document in the canonical form (``_CANONICAL_EDGE_LIST``) whose
    records number m, stay in range and hold no loop or duplicate is read in
    bulk, with no Python step per line: the records are normalized to u < v
    (only if some record is reversed) and sorted, which is linear on the
    ascending records ``format_edge_list`` writes, and one C-level
    comparison of neighbouring pairs rejects duplicates. The graph starts
    with the sorted pairs as its edge order, with no per-edge check. Any
    other document, including every one that is malformed or repeats an
    edge, goes to the line reader ``parse_records``, which alone raises
    ParseError (naming the line) and warns of duplicates.
    """
    if _CANONICAL_EDGE_LIST.fullmatch(text):
        numbers = list(map(int, text.split()))
        n, m = numbers[0], numbers[1]
        us, vs = numbers[2::2], numbers[3::2]
        if (
            len(us) == m
            and (not m or max(max(us), max(vs)) < n)
            and all(map(ne, us, vs))
        ):
            pairs = sorted(zip(us, vs) if all(map(lt, us, vs)) else map(edge, us, vs))
            if all(map(lt, pairs, pairs[1:])):
                return Graph._unchecked(n, order=tuple(pairs))
    records = parse_records(
        text, "n m", "edge line 'u v'", "edge endpoints must be integers"
    )
    _, (n, _) = next(records)
    edges: set[Edge] = set()
    for line_no, (u, v) in records:
        e = edge(u, v)
        if e in edges:
            warnings.warn(f"duplicate edge {e} on line {line_no} collapsed")
        edges.add(e)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
