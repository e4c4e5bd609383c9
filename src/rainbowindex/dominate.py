"""Dominating-set variants: predicates, greedy constructions, and the
merge/union steps that turn per-part dominating sets into one connected set.

Three variants appear throughout, all certified by re-checkable predicates:

* step(j): every vertex lies within distance j of the set;
* multi(j): every outside vertex has at least j neighbors inside the set;
* way(j): a dominating set whose outside vertices all have degree >= j.

Certificates never trust the construction that produced them: ``holds()``
re-runs the predicate from scratch.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import (
    Graph,
    InvariantViolation,
    bfs_distances,
    shortest_path_between_sets,
)

STEP = "step"
MULTI = "multi"
WAY = "way"


@dataclass(frozen=True)
class DominationCertificate:
    """A vertex set plus the domination claim it satisfies on ``graph``."""

    graph: Graph
    vertices: tuple[int, ...]  # sorted
    kind: str  # "step" | "multi" | "way"
    j: int
    connected: bool
    size_bound: Fraction | None = None
    bound_label: str | None = None

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def holds(self) -> bool:
        g = self.graph
        dom = set(self.vertices)
        if not dom:
            return False
        if self.kind == STEP:
            ok = is_k_step_dominating(g, dom, self.j)
        elif self.kind == MULTI:
            ok = is_k_dominating(g, dom, self.j)
        elif self.kind == WAY:
            ok = is_k_way_dominating(g, dom, self.j)
        else:
            return False
        if not ok:
            return False
        if self.connected and not _induces_connected(g, dom):
            return False
        if self.size_bound is not None and len(dom) > self.size_bound:
            return False
        return True


def _induces_connected(g: Graph, dom: set[int]) -> bool:
    if not dom:
        return False
    start = min(dom)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w in dom and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == dom


def _components_within(g: Graph, dom: Iterable[int]) -> list[tuple[int, ...]]:
    """Components of the induced subgraph on dom, ordered by minimum id."""
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


def _balls(g: Graph, mask: int) -> list[int]:
    """BFS by bitmasks: entry r holds every vertex within distance r of the
    vertices in ``mask``; the list ends once the reachable part is covered."""
    adj_bits = g.adj_bits
    balls = [mask]
    seen = frontier = mask
    while True:
        grown = 0
        # bin() spells out the frontier in C; find() then walks its set bits
        # faster than peeling them off the integer one at a time.
        bits = bin(frontier)
        top = len(bits) - 1
        i = bits.find("1", 2)
        while i != -1:
            grown |= adj_bits[top - i]
            i = bits.find("1", i + 1)
        frontier = grown & ~seen
        if not frontier:
            return balls
        seen |= frontier
        balls.append(seen)


# ---------------------------------------------------------------------------
# Predicates


def is_k_step_dominating(g: Graph, dom: Iterable[int], j: int) -> bool:
    """True iff every vertex is at distance <= j from the set."""
    dom = set(dom)
    if not dom:
        raise ValueError("dominating set must be nonempty")
    dist = bfs_distances(g, dom)
    return all(d is not None and d <= j for d in dist)


def is_k_dominating(g: Graph, dom: Iterable[int], j: int) -> bool:
    """True iff every vertex outside the set has >= j neighbors inside."""
    dom = set(dom)
    if not dom:
        raise ValueError("dominating set must be nonempty")
    for v in range(g.n):
        if v in dom:
            continue
        inside = sum(1 for w in g.adj[v] if w in dom)
        if inside < j:
            return False
    return True


def is_k_way_dominating(g: Graph, dom: Iterable[int], j: int) -> bool:
    """True iff dom is a dominating set and outside degrees are all >= j."""
    dom = set(dom)
    if not dom:
        raise ValueError("dominating set must be nonempty")
    if not is_k_step_dominating(g, dom, 1):
        return False
    return all(g.degree(v) >= j for v in range(g.n) if v not in dom)


# ---------------------------------------------------------------------------
# Constructions


def greedy_two_step_dominating(part: Graph) -> DominationCertificate:
    """Greedy 2-step dominating set of a (possibly disconnected) part.

    Seeds the lowest-id vertex of each component, then repeatedly absorbs the
    lowest-id vertex at distance exactly 3 until none remains. Every added
    vertex enlarges the closed neighborhood by at least delta + 1, which
    caps the final size at n / (delta + 1).

    The bookkeeping is incremental. Distances are kept only up to 3, and an
    added vertex relaxes them with a BFS that stops at radius 3 and wherever
    it fails to shorten a distance (distances only go down). Distance-3
    vertices wait in a lazy min-heap, and the closed-neighborhood count is
    kept running for the per-step delta + 1 check. The cost is one radius-3
    ball per added vertex instead of one full BFS per added vertex.
    """
    if part.n == 0:
        raise ValueError("empty graph")
    delta = part.min_degree
    adj = part.adj
    dom = [comp[0] for comp in part.components]
    dist = [4] * part.n  # 4 stands for "farther than 3"
    level3: list[int] = []  # lazy min-heap of vertices at distance 3
    cover = 0  # vertices at distance <= 1

    def relax(sources: list[int]) -> None:
        nonlocal cover
        queue: deque[int] = deque()
        for s in sources:
            if dist[s] > 1:
                cover += 1
            dist[s] = 0
            queue.append(s)
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            if d > 3:
                continue
            for w in adj[v]:
                if d < dist[w]:
                    if dist[w] > 1 >= d:
                        cover += 1
                    elif d == 3:
                        heapq.heappush(level3, w)
                    dist[w] = d
                    queue.append(w)

    relax(dom)
    if cover < len(dom) * (delta + 1):
        raise InvariantViolation("seed closed neighborhoods cover too few vertices")
    while True:
        while level3 and dist[level3[0]] != 3:
            heapq.heappop(level3)
        if not level3:
            break
        v = heapq.heappop(level3)
        dom.append(v)
        before = cover
        relax([v])
        if cover - before < delta + 1:
            raise InvariantViolation(
                f"adding vertex {v} covered {cover - before} < delta + 1 new vertices"
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

    The bookkeeping is incremental. Each component gets one bitmask BFS
    when it forms, which gives its distance to every component already
    present; those pair distances wait in a lazy min-heap keyed by
    (distance, lower minimum id, higher minimum id), and pairs with a
    merged-away member are skipped when popped. A merge searches only from
    the new component, so the run costs one BFS per component ever formed
    (at most 2|D|), not one BFS per live component per merge.
    """
    dom0 = sorted(set(dominating))
    if not g.is_connected:
        raise ValueError("connect_two_step requires a connected host graph")
    if part.n != g.n or not part.edges <= g.edges:
        raise ValueError("part must be a spanning subgraph of the host graph")
    if not is_k_step_dominating(part, dom0, 2):
        raise ValueError("input is not a 2-step dominating set of the part")
    owner: list[int | None] = [None] * g.n  # component id of each set vertex
    comps: dict[int, tuple[int, ...]] = {}
    masks: dict[int, int] = {}  # vertex bitmask of each component
    pairs: list[tuple[int, int, int, int, int]] = []  # (d, min, min, id, id)
    ids = itertools.count()

    def add_component(vertices: tuple[int, ...]) -> None:
        cid = next(ids)
        mask = sum(1 << v for v in vertices)
        balls = _balls(g, mask)
        for oid, other in comps.items():
            d = next(r for r, ball in enumerate(balls) if ball & masks[oid])
            (lo, lo_id), (hi, hi_id) = sorted([(vertices[0], cid), (other[0], oid)])
            heapq.heappush(pairs, (d, lo, hi, lo_id, hi_id))
        comps[cid] = vertices
        masks[cid] = mask
        for v in vertices:
            owner[v] = cid

    for comp in _components_within(g, dom0):
        add_component(comp)
    while len(comps) > 1:
        d, _, _, a, b = heapq.heappop(pairs)
        if a not in comps or b not in comps:
            continue
        if d > 5:
            raise InvariantViolation(f"closest component pair at distance {d} > 5")
        path = shortest_path_between_sets(g, comps[a], comps[b])
        if path is None or len(path) - 2 > 4:
            raise InvariantViolation(
                f"merge path {path} has more than 4 interior vertices"
            )
        interior = path[1:-1]
        touched = {owner[w] for p in interior for w in (p, *g.adj[p])}
        merged = set(interior)
        for cid in touched & comps.keys():
            merged.update(comps.pop(cid))
            del masks[cid]
        add_component(tuple(sorted(merged)))
    (vertices,) = comps.values()
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
    """Union the given connected 2-step dominating sets of g and reconnect
    with at most len(certificates) - 1 extra vertices.

    Each detached component sits at distance exactly 2 from the component
    holding the first input (that input 2-step dominates g), so a single
    midpoint vertex attaches it; the lowest-id midpoint is chosen.
    """
    if not certificates:
        raise ValueError("need at least one certificate")
    for cert in certificates:
        vs = cert.vertex_set()
        if not vs:
            raise ValueError("certificate with empty vertex set")
        if not is_k_step_dominating(g, vs, 2) or not _induces_connected(g, set(vs)):
            raise ValueError(
                "input is not a connected 2-step dominating set of the graph"
            )
    dom: set[int] = set()
    for cert in certificates:
        dom |= cert.vertex_set()
    anchor_root = certificates[0].vertices[0]
    connectors: list[int] = []
    while True:
        comps = _components_within(g, dom)
        if len(comps) <= 1:
            break
        anchor = next(c for c in comps if anchor_root in c)
        anchor_set = set(anchor)
        others = [c for c in comps if c is not anchor]
        target = set(others[0])
        candidates = [
            w
            for w in range(g.n)
            if w not in dom
            and any(x in anchor_set for x in g.adj[w])
            and any(x in target for x in g.adj[w])
        ]
        if not candidates:
            raise RuntimeError("no length-2 connection found; inputs invalid")
        w = min(candidates)
        dom.add(w)
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
        vertices=tuple(sorted(dom)),
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

    The bookkeeping is incremental. Per vertex it keeps the number of
    neighbors inside the set and the gain (outside neighbors one short of
    j), plus the count of unsatisfied outside vertices and a lazy heap of
    (-gain, id) over the frontier. An outside vertex changes the gains of
    its neighbors only when its count reaches j - 1 and j, so all gain
    updates together cost O(m) heap pushes, instead of a predicate rescan
    and a frontier rebuild per added vertex. One final predicate check
    confirms the result.
    """
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    if j < 0:
        raise ValueError("j must be >= 0")
    adj = g.adj
    inside = [False] * g.n
    frontier = [False] * g.n  # adjacent to the set (tested with ``inside``)
    count = [0] * g.n  # neighbors inside the set
    gain = [len(adj[v]) if j == 1 else 0 for v in range(g.n)]
    unsatisfied = g.n if j > 0 else 0  # outside vertices with count < j
    heap: list[tuple[int, int]] = []

    def add(x: int) -> None:
        nonlocal unsatisfied
        touched = set()
        inside[x] = True
        if count[x] < j:
            unsatisfied -= 1
        if count[x] == j - 1:  # x no longer counts toward its neighbors' gain
            for u in adj[x]:
                gain[u] -= 1
            touched.update(adj[x])
        for v in adj[x]:
            count[v] += 1
            if inside[v]:
                continue
            if count[v] == j:
                unsatisfied -= 1
                for u in adj[v]:
                    gain[u] -= 1
                touched.update(adj[v])
            elif count[v] == j - 1:
                for u in adj[v]:
                    gain[u] += 1
                touched.update(adj[v])
            if not frontier[v]:
                frontier[v] = True
                touched.add(v)
        for u in touched:
            if frontier[u] and not inside[u]:
                heapq.heappush(heap, (-gain[u], u))

    add(min(range(g.n), key=lambda v: (-g.degree(v), v)))
    while unsatisfied:
        while heap:
            neg_gain, w = heapq.heappop(heap)
            if not inside[w] and -neg_gain == gain[w]:
                break
        else:
            raise InvariantViolation(
                "connected graph exhausted without satisfying predicate"
            )
        add(w)
    dom = tuple(v for v in range(g.n) if inside[v])
    if not is_k_dominating(g, dom, j):
        raise InvariantViolation("incremental counts disagree with the predicate")
    return DominationCertificate(
        graph=g,
        vertices=dom,
        kind=MULTI,
        j=j,
        connected=True,
    )
