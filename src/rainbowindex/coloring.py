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

In every construction the core D gets a spanning tree in fresh colors and
leftover edges reuse color 1, which never harms any prescribed rainbow tree.
Each coloring rule claims disjoint edge sets; a double claim raises.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    edge,
    induced_components,
    induced_subgraph,
    parse_records,
)


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring with colors 1..color_count.

    ``color_count`` is the size of the palette the producing scheme accounts
    for; degenerate instances may leave some palette colors unused (the
    constructions here renumber so that only the decomposition pipeline can
    do so, and only when a part-level rule never fires).
    """

    graph: Graph
    colors: Mapping[Edge, int]
    color_count: int

    def __post_init__(self):
        if self.colors.keys() != self.graph.edges:
            raise ValueError("coloring must cover exactly the graph's edges")
        for e, c in self.colors.items():
            if not 1 <= c <= max(self.color_count, 1):
                raise ValueError(f"color {c} on edge {e} outside 1..{self.color_count}")

    def color(self, u: int, v: int) -> int:
        return self.colors[edge(u, v)]

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors.values())


def all_distinct_coloring(g: Graph) -> EdgeColoring:
    """Every edge its own color; trivially k-rainbow for every k."""
    colors = {e: i + 1 for i, e in enumerate(g.sorted_edges())}
    return EdgeColoring(g, colors, max(g.m, 1) if g.m else 0)


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """A spanning tree in n-1 distinct colors, leftovers reuse color 1.

    Any vertex subset is connected by a rainbow subtree of the tree, so this
    realizes the trivial n-1 upper bound for every k.
    """
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    tree = bfs_tree_edges(g, range(g.n))
    colors = {e: i + 1 for i, e in enumerate(sorted(tree))}
    for e in g.sorted_edges():
        colors.setdefault(e, 1)
    return EdgeColoring(g, colors, max(g.n - 1, 1) if g.m else 0)


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
    rule_of: Mapping[Edge, str]


def color_pipeline(g: Graph, k: int) -> tuple[EdgeColoring, PipelineTrace]:
    """Decompose, dominate, and color with |D| - 1 + 2k colors.

    Coloring rules, in priority order:
      1. a spanning tree of the induced core gets |D| - 1 fresh colors
         (2k+1, 2k+2, ...);
      2. inside part i, edges between the part's dominating set and outside
         vertices at part-distance 1 get color i; edges from outside vertices
         at part-distance 2 to any vertex at part-distance 1 get color k+i
         (the distance-1 endpoint may lie inside the core, which keeps every
         far vertex attached even when its nearer neighbors were absorbed);
      3. every remaining edge gets color 1.
    """
    if not g.is_connected:
        raise ValueError("color_pipeline requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    split = split_k(g, k)
    part_doms = tuple(greedy_two_step_dominating(p) for p in split.parts)
    part_conn = tuple(
        connect_two_step(g, part, cert.vertices)
        for part, cert in zip(split.parts, part_doms)
    )
    core_cert = union_connect(g, part_conn)
    core = set(core_cert.vertices)
    claims = _Claims()

    tree = sorted(bfs_tree_edges(g, core))
    for idx, e in enumerate(tree):
        claims.claim(e, 2 * k + 1 + idx, "core-tree")

    near_sets: list[frozenset[int]] = []
    far_sets: list[frozenset[int]] = []
    for i, (part, dcert) in enumerate(zip(split.parts, part_doms), start=1):
        layers = balls(part, dcert.vertices)
        layers += [layers[-1]] * 2  # empty rings past the last layer
        ring1 = layers[1] & ~layers[0]
        ring2 = layers[2] & ~layers[1]
        dom_i = set(dcert.vertices)
        shell1 = {v for v in range(g.n) if ring1 >> v & 1}
        near = frozenset(shell1 - core)
        far = frozenset(v for v in range(g.n) if v not in core and ring2 >> v & 1)
        near_sets.append(near)
        far_sets.append(far)
        for u, v in part.sorted_edges():
            if (u in dom_i and v in near) or (v in dom_i and u in near):
                claims.claim((u, v), i, f"attach:part-{i}")
        for u, v in part.sorted_edges():
            if (u in far and v in shell1) or (v in far and u in shell1):
                claims.claim((u, v), k + i, f"two-step:part-{i}")

    for e in g.sorted_edges():
        if e not in claims.colors:
            claims.claim(e, 1, "filler")

    color_count = len(core) - 1 + 2 * k
    coloring = EdgeColoring(g, claims.colors, color_count)
    trace = PipelineTrace(
        split=split,
        part_doms=part_doms,
        part_doms_connected=part_conn,
        core_certificate=core_cert,
        core=core_cert.vertices,
        near_sets=tuple(near_sets),
        far_sets=tuple(far_sets),
        tree_edges=tuple(tree),
        rule_of=claims.rule_of,
    )
    return coloring, trace


# ---------------------------------------------------------------------------
# Dominating-set-based colorings


def _normalize_dominating(dominating) -> tuple[int, ...]:
    if isinstance(dominating, DominationCertificate):
        return dominating.vertices
    return tuple(sorted(set(dominating)))


def _core_tree_colors(
    g: Graph,
    dom: tuple[int, ...],
    base: int,
    claims: _Claims,
    core_coloring: EdgeColoring | None,
) -> int:
    """Color the induced core: spanning tree in fresh colors, or a supplied
    coloring of the induced subgraph shifted past ``base``. Returns the
    number of core colors used."""
    if core_coloring is None:
        tree = sorted(bfs_tree_edges(g, dom))
        for idx, e in enumerate(tree):
            claims.claim(e, base + 1 + idx, "core-tree")
        return len(dom) - 1
    sub, originals = induced_subgraph(g, dom)
    if core_coloring.graph != sub:
        raise ValueError("core coloring does not match the induced core subgraph")
    for (a, b), c in core_coloring.colors.items():
        claims.claim(edge(originals[a], originals[b]), base + c, "core-coloring")
    return core_coloring.color_count


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
    dom = _normalize_dominating(dominating)
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    if not is_k_dominating(g, dom, k):
        raise ValueError("set is not k-dominating")
    if len(induced_components(g, dom)) != 1:
        raise ValueError("set does not induce a connected subgraph")
    if core_coloring is not None and len(dom) < k:
        raise ValueError("core coloring requires |D| >= k")
    inside = set(dom)
    outside = [v for v in range(g.n) if v not in inside]
    claims = _Claims()
    leg_base = k if outside else 0
    for v in outside:
        feet = sorted(w for w in g.adj[v] if w in inside)
        for i, foot in enumerate(feet[:k], start=1):
            claims.claim(edge(v, foot), i, "leg")
    core_colors = _core_tree_colors(g, dom, leg_base, claims, core_coloring)
    for e in g.sorted_edges():
        if e not in claims.colors:
            claims.claim(e, 1, "filler")
    return EdgeColoring(g, claims.colors, leg_base + core_colors)


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
    dom = _normalize_dominating(dominating)
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    if g.min_degree < k:
        raise ValueError(f"minimum degree {g.min_degree} < k={k}")
    if not is_k_dominating(g, dom, k - 1):
        raise ValueError("set is not (k-1)-dominating")
    if len(induced_components(g, dom)) != 1:
        raise ValueError("set does not induce a connected subgraph")
    if core_coloring is not None and len(dom) < k:
        raise ValueError("core coloring requires |D| >= k")
    inside = set(dom)
    outside = [v for v in range(g.n) if v not in inside]
    forest = bfs_forest(g, outside)
    parents = set(forest.values())
    isolated = frozenset(v for v, p in forest.items() if p is None and v not in parents)
    side_even: set[int] = set()
    for v, p in forest.items():  # parents come first; roots are even
        if v not in isolated and (p is None or p not in side_even):
            side_even.add(v)
    side_odd = forest.keys() - isolated - side_even
    forest_edges = [edge(p, v) for v, p in forest.items() if p is not None]

    claims = _Claims()
    legs: dict[int, tuple[tuple[Edge, int], ...]] = {}

    def assign_legs(v: int, count: int, color_of_index) -> None:
        feet = sorted(w for w in g.adj[v] if w in inside)
        assigned = []
        for i, foot in enumerate(feet[:count], start=1):
            c = color_of_index(i)
            claims.claim(edge(v, foot), c, "leg")
            assigned.append((edge(v, foot), c))
        legs[v] = tuple(assigned)

    for v in sorted(isolated):
        assign_legs(v, k, lambda i: i)
    for v in sorted(side_even):
        assign_legs(v, k - 1, lambda i: i)
    for v in sorted(side_odd):
        assign_legs(v, k - 1, lambda i: i + 1)

    cross_edges = [
        (u, v)
        for u, v in g.sorted_edges()
        if (u in side_even and v in side_odd) or (u in side_odd and v in side_even)
    ]
    leg_base = k if outside else 0
    cross_color: int | None = None
    if cross_edges:
        cross_color = k + 1
        for e in cross_edges:
            claims.claim(e, cross_color, "cross")
    base = leg_base + (1 if cross_edges else 0)
    core_colors = _core_tree_colors(g, dom, base, claims, core_coloring)
    for e in g.sorted_edges():
        if e not in claims.colors:
            claims.claim(e, 1, "filler")
    coloring = EdgeColoring(g, claims.colors, base + core_colors)
    tree_edges = tuple(
        sorted(e for e, rule in claims.rule_of.items() if rule.startswith("core"))
    )
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


def format_coloring(coloring: EdgeColoring) -> str:
    g = coloring.graph
    lines = [f"{g.n} {g.m} {coloring.color_count}"]
    for u, v in g.sorted_edges():
        lines.append(f"{u} {v} {coloring.colors[(u, v)]}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, graph: Graph | None = None) -> EdgeColoring:
    """Coloring document; against ``graph`` if given. Errors name the line:
    the header for an n or edge-count mismatch, the record for an edge the
    graph lacks."""
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


def write_coloring(coloring: EdgeColoring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_coloring(coloring))
