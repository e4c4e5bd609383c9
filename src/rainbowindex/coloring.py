"""Explicit rainbow edge colorings.

Three constructions, each returning a total edge coloring whose color count
certifies an upper bound on the k-rainbow index:

* ``color_pipeline``: decompose into k edge-disjoint spanning parts, build a
  connected 2-step dominating core D from per-part greedy sets, then color
  so that every outside vertex reaches D inside every part i by a walk of at
  most 2 edges using only colors {i, k+i}. Uses |D| - 1 + 2k colors.
* ``color_kdom``: from a connected k-dominating set, color k legs per
  outside vertex with colors 1..k. Uses at most |D| - 1 + k colors.
* ``color_km1dom``: from a connected (k-1)-dominating set on a graph with
  minimum degree >= k, split the outside into isolated vertices and a forest
  bipartition, and stagger the leg colors so one side covers 1..k-1 and the
  other 2..k, with cross edges in a dedicated color. Uses at most
  |D| - 1 + k + 1 colors.

One assembler serves all three and ``spanning_tree_coloring`` (D = V): the
construction claims its attachment edges in reserved colors 1..base, then
``_Claims.finish`` gives the induced core D a spanning tree in fresh colors
above base (or a supplied core coloring shifted past it) and every leftover
edge color 1, which never harms any prescribed rainbow tree. Each rule
claims disjoint edge sets; a double claim raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

from .decompose import SpanningSplit, split_k
from .dominate import (
    DominationCertificate,
    connect_two_step,
    greedy_two_step_dominating,
    is_k_dominating,
    union_connect,
)
from .graph import (
    Edge,
    Graph,
    InvariantViolation,
    ParseError,
    balls,
    bfs_forest,
    bfs_tree_edges,
    check_k,
    component_masks,
    edge,
    induced_subgraph,
    parse_records,
    read_ids,
    set_bits,
    vertex_mask,
)


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring with colors 1..color_count.

    ``color_count`` is the size of the palette the producing scheme accounts
    for; degenerate instances may leave some palette colors unused (the
    constructions here renumber so that only the decomposition pipeline can
    do so, and only when a part-level rule never fires).

    The keys must be the graph's edges. Keys in the graph's ascending edge
    order, as every construction and the bulk reader build them, are
    checked against ``Graph.sorted_edges()`` pair by pair, which is one
    identity test per edge when they are the graph's own tuples; only keys
    in any other order are compared as a set with ``Graph.edges``, which
    builds that set on first read. Either way the predicate is the same.
    """

    graph: Graph
    colors: Mapping[Edge, int]
    color_count: int

    def __post_init__(self):
        if (
            tuple(self.colors) != self.graph.sorted_edges()
            and self.colors.keys() != self.graph.edges
        ):
            raise ValueError("coloring must cover exactly the graph's edges")
        top = max(self.color_count, 1)
        values = self.colors.values()
        if values and 1 <= min(values) and max(values) <= top:
            return
        for e, c in self.colors.items():  # name the first edge out of range
            if not 1 <= c <= top:
                raise ValueError(f"color {c} on edge {e} outside 1..{self.color_count}")


def all_distinct_coloring(g: Graph) -> EdgeColoring:
    """Every edge its own color; trivially k-rainbow for every k."""
    colors = {e: i + 1 for i, e in enumerate(g.sorted_edges())}
    return EdgeColoring(g, colors, g.m)


class _Claims:
    """Edge -> color assignment that rejects double claims."""

    def __init__(self):
        self.colors: dict[Edge, int] = {}
        self.rule_of: dict[Edge, str] = {}

    def claim(self, e: Edge, color: int, rule: str) -> None:
        if e in self.colors:
            raise InvariantViolation(
                f"edge {e} claimed twice: {self.rule_of[e]} then {rule}"
            )
        self.colors[e] = color
        self.rule_of[e] = rule

    def claim_all(self, edges: Iterable[Edge], color: int, rule: str) -> None:
        """``claim`` each of ``edges`` in ``color``, in bulk."""
        edges = list(edges)
        fresh = dict.fromkeys(edges, color)
        if len(fresh) < len(edges) or not self.colors.keys().isdisjoint(fresh):
            for e in edges:
                self.claim(e, color, rule)  # raises at the first double claim
        self.colors.update(fresh)
        self.rule_of.update(dict.fromkeys(fresh, rule))

    def legs(self, g: Graph, inside: int, groups) -> dict[int, tuple[tuple[Edge, int], ...]]:
        """For each ``(vertices, colors)`` in ``groups``, claim every vertex's
        edges to its lowest-id feet in the vertex mask ``inside``, one per
        color in order; return vertex -> its legs with their colors.

        Legs of different vertices are different edges, so each color's legs
        are claimed together by one ``claim_all``."""
        legs: dict[int, tuple[tuple[Edge, int], ...]] = {}
        by_color: dict[int, list[Edge]] = {}
        for vertices, colors in groups:
            for v in vertices:
                feet = g.adj_bits[v] & inside
                mine = []
                for c in colors:
                    low = feet & -feet
                    feet ^= low
                    e = edge(v, low.bit_length() - 1)
                    mine.append((e, c))
                    by_color.setdefault(c, []).append(e)
                legs[v] = tuple(mine)
        for c, same_color in by_color.items():
            self.claim_all(same_color, c, "leg")
        return legs

    def finish(
        self, g: Graph, core, base: int, core_coloring: EdgeColoring | None = None
    ) -> tuple[EdgeColoring, tuple[Edge, ...]]:
        """Color the induced core above ``base``, then every unclaimed edge 1.

        The core gets a BFS spanning tree in fresh colors base+1, base+2, ...,
        or ``core_coloring``, a coloring of the induced subgraph (vertices
        relabeled ascending), shifted past ``base``. Returns the coloring,
        whose palette is ``base`` plus the core's colors, and the sorted core
        edges.
        """
        if core_coloring is None:
            core_edges = sorted(bfs_tree_edges(g, core))
            for idx, e in enumerate(core_edges):
                self.claim(e, base + 1 + idx, "core-tree")
            core_colors = len(core_edges)
        else:
            sub, originals = induced_subgraph(g, core)
            if core_coloring.graph != sub:
                raise ValueError("core coloring does not match the induced core subgraph")
            core_edges = []
            for (a, b), c in core_coloring.colors.items():
                core_edges.append(edge(originals[a], originals[b]))
                self.claim(core_edges[-1], base + c, "core-coloring")
            core_edges.sort()
            core_colors = core_coloring.color_count
        # color 1 unless claimed, in edge order
        colors = dict.fromkeys(g.sorted_edges(), 1)
        colors.update(self.colors)
        return EdgeColoring(g, colors, base + core_colors), tuple(core_edges)


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """A spanning tree in n-1 distinct colors, leftovers reuse color 1.

    Any vertex subset is connected by a rainbow subtree of the tree, so this
    realizes the trivial n-1 upper bound for every k.
    """
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    return _Claims().finish(g, range(g.n), 0)[0]


# ---------------------------------------------------------------------------
# Decomposition pipeline


@dataclass(frozen=True)
class PipelineTrace:
    """Everything the pipeline decided, for auditing and property tests."""

    split: SpanningSplit
    part_doms: tuple[DominationCertificate, ...]
    part_doms_connected: tuple[DominationCertificate, ...]
    core_certificate: DominationCertificate
    core: tuple[int, ...]
    near_sets: tuple[frozenset[int], ...]  # outside vertices at part-distance 1
    far_sets: tuple[frozenset[int], ...]  # outside vertices at part-distance 2
    tree_edges: tuple[Edge, ...]


def color_pipeline(g: Graph, k: int) -> tuple[EdgeColoring, PipelineTrace]:
    """Decompose, dominate, and color with |D| - 1 + 2k colors.

    Coloring rules, on disjoint edge sets:
      1. inside part i, edges between the part's dominating set and outside
         vertices at part-distance 1 get color i; edges from outside vertices
         at part-distance 2 to any vertex at part-distance 1 get color k+i
         (the distance-1 endpoint may lie inside the core, which keeps every
         far vertex attached even when its nearer neighbors were absorbed);
      2. a spanning tree of the induced core gets |D| - 1 fresh colors
         (2k+1, 2k+2, ...);
      3. every remaining edge gets color 1.
    """
    check_k(g, k)
    split = split_k(g, k)
    part_doms = tuple(greedy_two_step_dominating(p) for p in split.parts)
    part_conn = tuple(
        connect_two_step(g, part, cert.vertices)
        for part, cert in zip(split.parts, part_doms)
    )
    core_cert = union_connect(g, part_conn)
    outside = ~sum(1 << v for v in core_cert.vertices)
    claims = _Claims()
    near_sets: list[frozenset[int]] = []
    far_sets: list[frozenset[int]] = []
    for i, (part, dcert) in enumerate(zip(split.parts, part_doms), start=1):
        layers = balls(part, dcert.vertices)
        layers += [layers[-1]] * 2  # empty rings past the last layer
        ring1 = layers[1] & ~layers[0]
        near_bits = ring1 & outside
        far = tuple(set_bits(layers[2] & ~layers[1] & outside))
        near_sets.append(frozenset(set_bits(near_bits)))
        far_sets.append(frozenset(far))
        # each rule's edges have exactly one endpoint in the row's vertex
        # set (the dominating set, or the far vertices), so none repeats
        adj_bits, dom = part.adj_bits, dcert.vertices
        claims.claim_all(
            (edge(u, v) for u in dom for v in set_bits(adj_bits[u] & near_bits)),
            i,
            f"attach:part-{i}",
        )
        claims.claim_all(
            (edge(u, v) for u in far for v in set_bits(adj_bits[u] & ring1)),
            k + i,
            f"two-step:part-{i}",
        )
    coloring, tree = claims.finish(g, core_cert.vertices, 2 * k)
    trace = PipelineTrace(
        split=split,
        part_doms=part_doms,
        part_doms_connected=part_conn,
        core_certificate=core_cert,
        core=core_cert.vertices,
        near_sets=tuple(near_sets),
        far_sets=tuple(far_sets),
        tree_edges=tree,
    )
    return coloring, trace


# ---------------------------------------------------------------------------
# Dominating-set-based colorings


def _dominating_core(g: Graph, dominating, j: int, k: int, core_coloring) -> tuple[int, ...]:
    """The set's sorted vertices, once it is j-dominating, induces a connected
    subgraph and, if ``core_coloring`` is given, has at least k vertices."""
    if isinstance(dominating, DominationCertificate):
        dominating = dominating.vertices
    dom = tuple(sorted(set(dominating)))
    if not is_k_dominating(g, dom, j):
        raise ValueError(f"set is not {'k' if j == k else '(k-1)'}-dominating")
    if len(component_masks(g, vertex_mask(g, dom))) != 1:
        raise ValueError("set does not induce a connected subgraph")
    if core_coloring is not None and len(dom) < k:
        raise ValueError("core coloring requires |D| >= k")
    return dom


def color_kdom(
    g: Graph,
    dominating,
    k: int,
    core_coloring: EdgeColoring | None = None,
) -> EdgeColoring:
    """Rainbow coloring from a connected k-dominating set.

    Every outside vertex has >= k legs into the set; its first k legs
    (sorted by foot id) get colors 1..k. The induced core gets fresh colors
    above k; leftovers reuse color 1. At most |D| - 1 + k colors.

    ``core_coloring`` optionally replaces the spanning tree with a k-rainbow
    coloring of the induced core (vertices relabeled ascending); it is only
    accepted when |D| >= k, where any <=k core terminals extend to a full
    k-subset inside the core.
    """
    check_k(g, k)
    dom = _dominating_core(g, dominating, k, k, core_coloring)
    inside = sum(1 << v for v in dom)
    outside = set_bits(((1 << g.n) - 1) & ~inside)
    claims = _Claims()
    claims.legs(g, inside, [(outside, range(1, k + 1))])  # k feet each
    base = k if len(dom) < g.n else 0
    return claims.finish(g, dom, base, core_coloring)[0]


@dataclass(frozen=True)
class Km1Trace:
    """Structure behind the (k-1)-dominating construction."""

    dominating: tuple[int, ...]
    isolated_outside: frozenset[int]  # outside vertices with no outside neighbor
    side_even: frozenset[int]  # forest bipartition side holding the roots
    side_odd: frozenset[int]
    forest_edges: tuple[Edge, ...]
    legs: Mapping[int, tuple[tuple[Edge, int], ...]]  # vertex -> colored legs
    tree_edges: tuple[Edge, ...]
    cross_color: int | None  # color of edges between the two sides, if any


def color_km1dom(
    g: Graph,
    dominating,
    k: int,
    core_coloring: EdgeColoring | None = None,
) -> tuple[EdgeColoring, Km1Trace]:
    """Rainbow coloring from a connected (k-1)-dominating set, minimum
    degree >= k.

    Outside vertices isolated among themselves have >= k legs (all their
    neighbors are inside) colored 1..k. The rest carry a spanning forest;
    one bipartition side colors its k-1 legs 1..k-1, the other 2..k, and all
    edges between the sides share one dedicated color, which gives the
    deficient side a 2-edge detour for the missing color. At most
    |D| - 1 + k + 1 colors.
    """
    check_k(g, k)
    if g.min_degree < k:
        raise ValueError(f"minimum degree {g.min_degree} < k={k}")
    dom = _dominating_core(g, dominating, k - 1, k, core_coloring)
    inside = sum(1 << v for v in dom)
    forest = bfs_forest(g, set_bits(((1 << g.n) - 1) & ~inside))
    parents = set(forest.values())
    isolated = frozenset(v for v, p in forest.items() if p is None and v not in parents)
    side_even: set[int] = set()
    for v, p in forest.items():  # parents come first; roots are even
        if v not in isolated and (p is None or p not in side_even):
            side_even.add(v)
    side_odd = forest.keys() - isolated - side_even
    forest_edges = [edge(p, v) for v, p in forest.items() if p is not None]

    claims = _Claims()
    legs = claims.legs(
        g,
        inside,
        [
            (sorted(isolated), range(1, k + 1)),
            (sorted(side_even), range(1, k)),
            (sorted(side_odd), range(2, k + 1)),
        ],
    )
    cross_edges = [
        (u, v)
        for u, v in g.sorted_edges()
        if (u in side_even and v in side_odd) or (u in side_odd and v in side_even)
    ]
    cross_color = k + 1 if cross_edges else None
    claims.claim_all(cross_edges, cross_color, "cross")
    base = (k if forest else 0) + (1 if cross_edges else 0)
    coloring, tree_edges = claims.finish(g, dom, base, core_coloring)
    trace = Km1Trace(
        dominating=dom,
        isolated_outside=isolated,
        side_even=frozenset(side_even),
        side_odd=frozenset(side_odd),
        forest_edges=tuple(sorted(forest_edges)),
        legs=legs,
        tree_edges=tree_edges,
        cross_color=cross_color,
    )
    return coloring, trace


# ---------------------------------------------------------------------------
# Coloring file format
#
# Line 1: "n m c"; then m lines "u v color", each graph edge exactly once.

#: The form ``format_coloring`` writes: lines of three ASCII integers split
#: by single spaces, every line ending in a newline.
_CANONICAL_COLORING = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)+")


def format_coloring(coloring: EdgeColoring) -> str:
    """The coloring document: the header, then one "u v color" line per
    edge in ascending edge order, all m lines written by one ``%`` format
    over a flat tuple of the edges' fields. A color mapping whose keys are
    in that order gives its colors as its values stand; any other order is
    looked up edge by edge, to the same bytes."""
    g = coloring.graph
    order = g.sorted_edges()
    fields: list[int] = [0] * (3 * g.m)
    # itemgetter, not zip(*order): that holds one iterator per edge at once,
    # and so many live objects set off the cyclic garbage collector
    fields[0::3] = map(itemgetter(0), order)
    fields[1::3] = map(itemgetter(1), order)
    colors = coloring.colors
    fields[2::3] = colors.values() if tuple(colors) == order else map(colors.__getitem__, order)
    header = f"{g.n} {g.m} {coloring.color_count}\n"
    return header + "%d %d %d\n" * g.m % tuple(fields)


def parse_coloring(text: str, graph: Graph | None = None) -> EdgeColoring:
    """Coloring document; against ``graph`` if given. Errors name the line:
    the header for an n or edge-count mismatch, the record for an edge the
    graph lacks.

    Against a graph, a document as ``format_coloring`` writes it is read in
    bulk, with no Python step per line: one in the canonical form
    (``_CANONICAL_COLORING``) whose header holds the graph's n and m, whose
    pairs are the graph's edges in ascending order and whose colors lie in
    1..c. Each token is read by name (``read_ids``, which falls back to
    ``int`` for a leading zero), and the coloring maps the graph's own edge
    tuples, in edge order, to the colors. Any other document, and any
    document read without a graph, goes to the line reader, which alone
    raises ParseError; the two readers give equal colorings.
    """
    if graph is not None and _CANONICAL_COLORING.fullmatch(text):
        tokens = text.split()
        n, m, c = map(int, tokens[:3])
        ends = tokens[3:]
        del ends[2::3]  # the colors
        colors = read_ids(tokens[5::3], c + 1)
        order = graph.sorted_edges()
        if (
            (n, m) == (graph.n, graph.m)
            and colors is not None
            and 0 not in colors
            and read_ids(ends, n) == list(chain.from_iterable(order))
        ):
            return EdgeColoring(graph, dict(zip(order, colors)), c)
    records = parse_records(text, "n m c", "'u v color'", "fields must be integers")
    header_line, (n, _, c) = next(records)
    if graph is not None and graph.n != n:
        raise ParseError(f"coloring is for n={n}, graph has n={graph.n}", header_line)
    entries: dict[Edge, int] = {}
    for line_no, (u, v, col) in records:
        if not 1 <= col <= c:
            raise ParseError(f"color {col} outside 1..{c}", line_no)
        e = edge(u, v)
        if e in entries:
            raise ParseError(f"edge {e} colored twice", line_no)
        if graph is not None and e not in graph.edges:
            raise ParseError(f"edge set mismatch: {e} is not in the graph", line_no)
        entries[e] = col
    if graph is None:
        graph = Graph(n, frozenset(entries.keys()))
    elif len(entries) != graph.m:
        raise ParseError(
            f"edge set mismatch: {len(entries)} colored edges, graph has {graph.m}",
            header_line,
        )
    return EdgeColoring(graph, entries, c)


def read_coloring(path, graph: Graph | None = None) -> EdgeColoring:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloring(fh.read(), graph)
