"""Dominating-set variants: predicates, greedy constructions, and the
merge/union steps that turn per-part dominating sets into one connected set.

Two variants appear throughout, both certified by re-checkable predicates:

* step(j): every vertex lies within distance j of the set;
* multi(j): every outside vertex has at least j neighbors inside the set.

Certificates never trust the construction that produced them: ``holds()``
re-runs the predicate from scratch.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import (
    Graph,
    InvariantViolation,
    balls,
    component_masks,
    set_bits,
    shortest_path_between_masks,
    spread,
    vertex_mask,
)

STEP = "step"
MULTI = "multi"


@dataclass(frozen=True)
class DominationCertificate:
    """A vertex set plus the domination claim it satisfies on ``graph``."""

    graph: Graph
    vertices: tuple[int, ...]  # sorted
    kind: str  # "step" | "multi"
    j: int
    connected: bool
    size_bound: Fraction | None = None
    bound_label: str | None = None

    def holds(self) -> bool:
        g = self.graph
        dom = set(self.vertices)
        predicate = {STEP: is_k_step_dominating, MULTI: is_k_dominating}.get(self.kind)
        if not dom or predicate is None or not predicate(g, dom, self.j):
            return False
        if self.connected and len(component_masks(g, vertex_mask(g, dom))) != 1:
            return False
        if self.size_bound is not None and len(dom) > self.size_bound:
            return False
        return True


# ---------------------------------------------------------------------------
# Predicates


def is_k_step_dominating(g: Graph, dom: Iterable[int], j: int) -> bool:
    """True iff every vertex is at distance <= j from the set."""
    dom = set(dom)
    if not dom:
        raise ValueError("dominating set must be nonempty")
    layers = balls(g, dom)
    return j >= 0 and layers[min(j, len(layers) - 1)] == (1 << g.n) - 1


def is_k_dominating(g: Graph, dom: Iterable[int], j: int) -> bool:
    """True iff every vertex outside the set has >= j neighbors inside: one
    popcount of its row within the set's mask per outside vertex. Raises
    ValueError for an empty set or one naming a vertex outside 0..n-1."""
    dom = set(dom)
    if not dom:
        raise ValueError("dominating set must be nonempty")
    mask = vertex_mask(g, dom)
    rows = g.adj_bits
    outside = ((1 << g.n) - 1) & ~mask
    return all((rows[v] & mask).bit_count() >= j for v in set_bits(outside))


# ---------------------------------------------------------------------------
# Constructions


def greedy_two_step_dominating(part: Graph) -> DominationCertificate:
    """Greedy 2-step dominating set of a (possibly disconnected) part.

    Seeds the lowest-id vertex of each component, then repeatedly absorbs the
    lowest-id vertex at distance exactly 3 until none remains. Every added
    vertex enlarges the closed neighborhood by at least delta + 1, which
    caps the final size at n / (delta + 1).

    The bookkeeping is incremental: bitmasks ``within[r]`` of the vertices
    within distance r <= 3 of the set, seeded by ``balls`` and padded with
    its last layer. An added vertex grows each layer, one ``spread`` step
    at a time, only by the vertices whose distance it lowers, so the cost
    is at most one radius-3 ball per added vertex, not one full BFS. The
    closed neighborhood ``within[1]`` gives the per-step delta + 1 check.
    """
    if part.n == 0:
        raise ValueError("empty graph")
    delta = part.min_degree
    adj_bits = part.adj_bits
    full = (1 << part.n) - 1
    dom = [(c & -c).bit_length() - 1 for c in component_masks(part, full)]
    layers = balls(part, dom)
    within = [layers[min(r, len(layers) - 1)] for r in range(4)]
    if within[1].bit_count() < len(dom) * (delta + 1):
        raise InvariantViolation("seed closed neighborhoods cover too few vertices")
    while at_three := within[3] & ~within[2]:
        v = (at_three & -at_three).bit_length() - 1
        dom.append(v)
        before = within[1].bit_count()
        lowered = 1 << v
        within[0] |= lowered
        for r in (1, 2, 3):
            lowered = (lowered | spread(lowered, adj_bits)) & ~within[r]
            within[r] |= lowered
        gained = within[1].bit_count() - before
        if gained < delta + 1:
            raise InvariantViolation(
                f"adding vertex {v} covered {gained} < delta + 1 new vertices"
            )
    bound = Fraction(part.n, delta + 1)
    if len(dom) > bound:
        raise InvariantViolation(f"{len(dom)} vertices exceed the bound {bound}")
    return DominationCertificate(
        graph=part,
        vertices=tuple(sorted(dom)),
        kind=STEP,
        j=2,
        connected=False,
        size_bound=bound,
        bound_label="greedy growth: n/(delta+1)",
    )


def connect_two_step(
    g: Graph, part: Graph, dominating: Iterable[int]
) -> DominationCertificate:
    """Grow a 2-step dominating set of ``part`` into a set that induces a
    connected subgraph of ``g``, adding at most 4 vertices per merge.

    Repeatedly joins the closest pair of components of the induced subgraph
    by the interior of a shortest path in g. Because the input 2-step
    dominates g, the closest pair is always at distance <= 5, so the result
    has size <= 5|D| - 4. Ties go to the pair with the lowest minimum ids.

    Components are vertex bitmasks (the minimum id is the lowest set bit).
    Every live component keeps its cumulative distance balls up to one
    common radius r, starting at 1. Balls are exact, so radius-i and
    radius-j balls of A and B meet iff d(A, B) <= i + j. A pair enters a
    lazy min-heap, keyed by (distance, lower minimum id, higher minimum
    id), once its radius-r balls meet: each new component is grown to r
    and checked against every live one, so every live pair within 2r is
    queued and any pair left out is farther away, and the top live entry
    is the closest pair. Pairs with a merged-away member are skipped. When
    the heap runs dry, r rises by one and every live component grows one
    ``spread`` step; the heap is empty then, so no pair is queued twice. A
    merge absorbs every component meeting the path's interior or its
    ``spread``, and their radius-1 balls with them.
    """
    dom0 = set(dominating)
    if not g.is_connected:
        raise ValueError("connect_two_step requires a connected host graph")
    if part.n != g.n or any(p & ~r for p, r in zip(part.adj_bits, g.adj_bits)):
        raise ValueError("part must be a spanning subgraph of the host graph")
    if not is_k_step_dominating(part, dom0, 2):
        raise ValueError("input is not a 2-step dominating set of the part")
    adj_bits = g.adj_bits
    # (minimum id, serial) -> cumulative balls of radius 0..r; the serial
    # tells a merged component from an absorbed one with the same minimum
    comps: dict[tuple[int, int], list[int]] = {}
    serials = itertools.count()
    pairs: list[tuple[int, int, int, tuple[int, int], tuple[int, int]]] = []
    r = 1

    def add_component(layers: list[int]) -> None:
        """Grow the balls to radius r and queue every live component whose
        radius-r ball meets this one's."""
        while len(layers) <= r:
            layers.append(layers[-1] | spread(layers[-1] & ~layers[-2], adj_bits))
        cid = ((layers[0] & -layers[0]).bit_length() - 1, next(serials))
        for oid, other in comps.items():
            if layers[r] & other[r]:
                d = next(
                    t for t in range(2 * r + 1) if layers[(t + 1) // 2] & other[t // 2]
                )
                lo, hi = sorted((cid, oid))
                heapq.heappush(pairs, (d, lo[0], hi[0], lo, hi))
        comps[cid] = layers

    for mask in component_masks(g, sum(1 << v for v in dom0)):
        add_component([mask, mask | spread(mask, adj_bits)])
    while len(comps) > 1:
        if not pairs:
            r += 1
            live = list(comps.values())
            comps.clear()
            for layers in live:
                add_component(layers)
            continue
        d, _, _, a, b = heapq.heappop(pairs)
        if a not in comps or b not in comps:
            continue
        if d > 5:
            raise InvariantViolation(f"closest component pair at distance {d} > 5")
        path = shortest_path_between_masks(g, comps[a][0], comps[b][0])
        if path is None or len(path) - 2 > 4:
            raise InvariantViolation(
                f"merge path {path} has more than 4 interior vertices"
            )
        merged = sum(1 << p for p in path[1:-1])
        ball = reach = merged | spread(merged, adj_bits)
        for cid, layers in list(comps.items()):
            if layers[0] & reach:
                merged |= layers[0]
                ball |= layers[1]
                del comps[cid]
        add_component([merged, ball])
    (layers,) = comps.values()
    vertices = tuple(set_bits(layers[0]))
    bound = Fraction(5 * len(dom0) - 4)
    if len(vertices) > bound:
        raise InvariantViolation(f"{len(vertices)} vertices exceed the bound {bound}")
    return DominationCertificate(
        graph=g,
        vertices=vertices,
        kind=STEP,
        j=2,
        connected=True,
        size_bound=bound,
        bound_label="component merging: 5|D|-4",
    )


def union_connect(
    g: Graph, certificates: Sequence[DominationCertificate]
) -> DominationCertificate:
    """Union the given connected 2-step dominating sets of g, each checked
    by ``holds()``, and reconnect with at most len(certificates) - 1 extra
    vertices.

    Each detached component sits at distance exactly 2 from the component
    holding the first input (that input 2-step dominates g), so a single
    midpoint vertex attaches it: a vertex outside the set in the ``spread``
    of both components; the lowest-id midpoint is chosen.
    """
    if not certificates:
        raise ValueError("need at least one certificate")
    dom = 0
    for cert in certificates:
        if not DominationCertificate(g, cert.vertices, STEP, 2, True).holds():
            raise ValueError("input is not a connected 2-step dominating set of the graph")
        dom |= vertex_mask(g, cert.vertices)
    anchor_bit = 1 << certificates[0].vertices[0]
    adj_bits = g.adj_bits
    connectors: list[int] = []
    while len(comps := component_masks(g, dom)) > 1:
        anchor = next(c for c in comps if c & anchor_bit)
        target = next(c for c in comps if c != anchor)
        # outside D, a vertex in both closed neighborhoods is adjacent to both
        candidates = spread(anchor, adj_bits) & spread(target, adj_bits) & ~dom
        if not candidates:
            raise InvariantViolation("no length-2 connection found; inputs invalid")
        w = (candidates & -candidates).bit_length() - 1
        dom |= 1 << w
        connectors.append(w)
    if len(connectors) > len(certificates) - 1:
        raise InvariantViolation(
            f"{len(connectors)} connectors exceed k - 1 = {len(certificates) - 1}"
        )
    total_bound = Fraction(
        sum(len(c.vertices) for c in certificates) + len(certificates) - 1
    )
    return DominationCertificate(
        graph=g,
        vertices=tuple(set_bits(dom)),
        kind=STEP,
        j=2,
        connected=True,
        size_bound=total_bound,
        bound_label="union plus <= k-1 connectors",
    )


def greedy_connected_k_dominating(g: Graph, j: int) -> DominationCertificate:
    """Connected set whose outside vertices all have >= j neighbors inside.

    Greedy: start from the highest-degree vertex (ties to the lowest id),
    repeatedly add the adjacent vertex that newly satisfies the most outside
    vertices (ties to the lowest id), until the predicate holds. No size
    optimality is claimed; the certificate is predicate-checked.

    The bookkeeping is incremental and on bitmask rows. ``at_least[c]``
    holds the vertices with at least c neighbors inside, c = 0..j; adding x
    raises each level by one AND and one OR with x's row. A vertex's gain
    is its number of neighbors in the one-short set: the outside vertices
    with exactly j - 1 neighbors inside, ``at_least[j-1] & ~at_least[j]``
    less the set. The gains are bit-sliced: bit i of u's gain is bit u of
    ``planes[i]``. A vertex that enters or leaves the one-short set adds or
    subtracts one to all its neighbors' gains at once, by a ripple carry or
    borrow of its row through the planes: one XOR and one AND per plane,
    and there are about log2 of the largest degree of them. Counts only
    rise and the set only grows, so each vertex enters and leaves at most
    once: all gain updates together are at most 2n row additions, O(n) mask
    operations, instead of a heap entry per changed gain. The pick starts
    from the frontier outside the set and, from the top plane down, keeps
    only the vertices with that plane's bit whenever any have it; what is
    left holds the highest gain, and its lowest set bit breaks the tie. One
    final predicate check confirms the result.
    """
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    if j < 0:
        raise ValueError("j must be >= 0")
    rows = g.adj_bits
    full = (1 << g.n) - 1
    at_least = [full] + [0] * j
    inside = frontier = short = 0  # short: outside, one neighbor short of j
    planes: list[int] = []  # bit u of planes[i] is bit i of u's gain

    def carry(row: int) -> None:
        """Add one to the gain of every vertex in ``row``."""
        for i, plane in enumerate(planes):
            planes[i] = plane ^ row
            row &= plane
            if not row:
                return
        planes.append(row)

    def borrow(row: int) -> None:
        """Subtract one from the gain of every vertex in ``row``."""
        for i, plane in enumerate(planes):
            planes[i] = plane ^ row
            row &= ~plane
            if not row:
                return
        raise InvariantViolation("a gain fell below zero")

    def add(x: int) -> None:
        nonlocal inside, frontier, short
        row = rows[x]
        inside |= 1 << x
        frontier |= row
        for c in range(j, 0, -1):
            at_least[c] |= at_least[c - 1] & row
        now = at_least[j - 1] & ~at_least[j] & ~inside if j else 0
        for v in set_bits(now & ~short):
            carry(rows[v])
        for v in set_bits(short & ~now):
            borrow(rows[v])
        short = now

    add(min(range(g.n), key=lambda v: (-g.degree(v), v)))
    while full & ~(at_least[j] | inside):
        best = frontier & ~inside
        if not best:
            raise InvariantViolation(
                "connected graph exhausted without satisfying predicate"
            )
        for plane in reversed(planes):
            if best & plane:
                best &= plane
        add((best & -best).bit_length() - 1)
    dom = tuple(set_bits(inside))
    if not is_k_dominating(g, dom, j):
        raise InvariantViolation("incremental counts disagree with the predicate")
    return DominationCertificate(
        graph=g,
        vertices=dom,
        kind=MULTI,
        j=j,
        connected=True,
    )
