"""Ground truth for rainbow connectivity.

One search, ``_rainbow_tree``, asks whether a rainbow tree contains a
terminal set S, for the verifier, the witness search and the exact
solver's tree pool above its cap (see ``exact_rx_k``). The search grows a
tree from the first terminal it is given (the lowest for the verifier and
the witness search, the one of lowest degree for the exact solver),
treats uncolored edges as wildcards and memoizes failed (vertex set, color
set) states. Each edge adds one vertex, so a state may still add as many
other vertices as its edges left exceed its missing terminals (its slack).
It is refuted unless every missing terminal can be reached from the tree,
through edges of unused colors, past at most that many non-terminals; with
no slack left, only children that add a missing terminal are grown.

* ``exists_rainbow_stree``: the search, allowing one edge per color in use,
  with the found tree pruned to a witness.
* ``is_k_rainbow_connected``: walks all C(n, k) subsets in lexicographic
  order and reports the first failure. It searches G/F, where F is a
  spanning forest of the edges whose color appears on no other edge: each
  component of those edges becomes one vertex, and the unique-color edges
  are dropped, while parallel edges of other colors stay. This is exact. A
  unique color cannot clash, so a rainbow tree of G/F expands to one of G
  by the F-trees of the vertices it touches, and a rainbow tree of G maps
  to a connected rainbow image in G/F holding a spanning tree. So the edge
  allowance is the number of colors used more than once. A rainbow tree
  found for one subset is a witness for every subset of the original
  vertices of the contracted vertices it touches, so a subset inside that
  set of an earlier tree is settled without a search (witness cover); it
  cannot be a failure, so the first failure and the count of subsets
  checked are those of a search per subset. A subset is covered iff the
  bitsets of the trees touching its vertices share a bit, k ANDs, as in
  the exact solver. Each search has its own node budget. Only the verdict
  is needed, so no witnesses are built.
* ``exact_rx_k``: smallest c admitting a k-rainbow coloring, by canonical
  backtracking over edge colors (color j+1 may first appear only after j).
  Each node colors the uncolored edge on the most live trees of the subset
  that failed last (fail-first). After each placed color it prunes unless
  every k-subset still has a tree of at most c edges whose colored edges
  have distinct colors. It keeps bitsets over a pool of such trees (tree
  supports): the trees through each edge, the trees containing each
  subset (its vertices' AND), and the trees with an edge of each color.
  A placed color kills the trees through its edge that already
  hold that color, and a subset survives while its cover meets the live
  trees, a few ANDs. Up to a fixed cap of 20,000 trees of at most c edges
  the pool is all of them, enumerated once per level, so a subset with no
  live tree refutes the placement. Above the cap the pool starts with a
  tree per subset, grown by the search from the subset's terminal of
  lowest degree; a subset left with no live tree is searched under the
  partial coloring, and the tree found joins the pool. Either pool gives
  the same answer, so a settled value does not depend on the cap; the
  next edge does, and so may the nodes and colorings.
  The enumeration is bounded by the cap, so it can overrun a deadline only
  by that bounded amount. Once every edge is colored the check is exact,
  so complete colorings are not re-verified. Budget exhaustion yields an
  explicit unknown-with-bounds result, never a guess.
* ``bounds_report``: assembles lower/upper bounds with provenance labels.
  Which parts run follows from the instance size: the Steiner diameter up to
  10M estimated steps, the solver's level sweep (2M-node budget) from the
  largest lower entry at desk scale, with a refutation entry only above it,
  and verification of the constructions up to n = 14 and 2,000 subsets.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .coloring import (
    EdgeColoring,
    color_kdom,
    color_km1dom,
    color_pipeline,
    spanning_tree_coloring,
)
from .dominate import greedy_connected_k_dominating
from .graph import (
    Edge,
    Graph,
    InvariantViolation,
    TreeWitness,
    check_k,
    component_masks,
    set_bits,
    steiner_diameter,
    steiner_diameter_steps,
    vertex_mask,
)


class SearchBudgetExceeded(RuntimeError):
    """Raised when a node budget or deadline runs out mid-search."""


def _check_budgets(node_budget, time_budget_s) -> None:
    for name, value in (("node", node_budget), ("time", time_budget_s)):
        if value is not None and not value >= 0:
            raise ValueError(f"{name} budget must be >= 0, got {value}")


class _Budget:
    def __init__(self, node_budget: int | None, time_budget_s: float | None):
        _check_budgets(node_budget, time_budget_s)
        self.node_budget = node_budget
        self.deadline = (
            time.monotonic() + time_budget_s if time_budget_s is not None else None
        )
        self.nodes = 0

    def tick(self) -> None:
        """Count one node; a refused node is not counted, so ``nodes`` never
        exceeds the budget."""
        if self.node_budget is not None and self.nodes >= self.node_budget:
            raise SearchBudgetExceeded("node budget exhausted")
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise SearchBudgetExceeded("time budget exhausted")


@dataclass(frozen=True)
class RainbowVerdict:
    """``subsets_checked`` counts subsets up to the verdict, covered ones
    included; ``searches`` counts those that needed a search of their own.
    A subset that no earlier tree covers is one search even when all its
    terminals fall in one contracted vertex: the search then returns the
    empty tree, and that vertex's members become its cover."""

    ok: bool
    failing_subset: tuple[int, ...] | None
    subsets_checked: int
    searches: int

    def __bool__(self) -> bool:
        return self.ok


def _incidence(n: int, ends) -> list[list[tuple[int, int, int]]]:
    """Per vertex its (neighbor, edge index, neighbor bit) triples, in edge
    order; for sorted edges that is sorted adjacency order."""
    inc: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, (x, y) in enumerate(ends):
        inc[x].append((y, i, 1 << y))
        inc[y].append((x, i, 1 << x))
    return inc


def _rainbow_tree(inc, bits, terms, max_edges, budget=None) -> list[int] | None:
    """Edge indices of a tree grown from ``terms[0]`` that contains every
    terminal, has at most ``max_edges`` edges and uses no color twice.

    ``bits[i]`` is edge i's color as a bit; 0 marks an uncolored edge, a
    wildcard any color may fill. A state's children take the tree vertices
    in join order, each with its incident edges in edge order. Failed
    (tree, colors) states are memoized, and a child is looked up before it
    is entered. Each edge brings one new vertex into the tree, so a state
    with ``left`` edges left and ``short`` missing terminals may add at most
    ``slack = left - short`` other vertices. It is refuted unless a walk
    through edges of unused color, where entering a missing terminal costs
    0 and any other vertex 1, reaches every missing terminal at cost at most
    ``slack``; with no slack, only children that add a missing terminal are
    grown. Both prunes drop only states that cannot finish, so the first
    tree found is that of the unpruned search. ``budget`` ticks once per
    state entered.
    """
    target = functools.reduce(operator.or_, [1 << v for v in terms])
    if target == 1 << terms[0]:
        return []
    memo: set[tuple[int, int]] = set()
    verts = [terms[0]]  # the tree's vertices in join order
    chosen: list[int] = []  # its edges in the same order

    def reaches(level, reach, used, todo, slack):
        # 0-1 walk from ``level``, the vertices at the current cost, until
        # every terminal in ``todo`` is reached or the cost exceeds ``slack``
        for _ in range(slack + 1):
            nxt = []
            for v in level:
                for w, i, bit in inc[v]:
                    if not reach & bit and not bits[i] & used:
                        reach |= bit
                        if todo & bit:
                            todo ^= bit
                            if not todo:
                                return True
                            level.append(w)
                        else:
                            nxt.append(w)
            level = nxt
        return False

    def grow(tree, used, left):
        # the state misses a terminal and is not memoized; on success
        # ``chosen`` holds the tree
        if budget is not None:
            budget.tick()
        missing = target & ~tree
        slack = left - missing.bit_count()
        if slack < 0 or not reaches(verts[:], tree, used, missing, slack):
            return False
        # with no slack, a child that adds another vertex fails its count
        allowed = missing if slack == 0 else -1
        for v in verts:
            for w, i, bit in inc[v]:
                if tree & bit or bits[i] & used or not allowed & bit:
                    continue
                chosen.append(i)
                if missing == bit:
                    return True
                child = tree | bit
                key = (child, used | bits[i])
                if key not in memo:
                    verts.append(w)
                    if grow(child, key[1], left - 1):
                        return True
                    verts.pop()
                    memo.add(key)
                chosen.pop()
        return False

    try:
        return chosen if grow(1 << terms[0], 0, max_edges) else None
    finally:
        del grow  # grow refers to itself; free the memo when the search ends


def _contracted_search_input(g: Graph, coloring: EdgeColoring):
    """The search input over G/F, F a spanning forest of the edges whose color
    appears on no other edge: each vertex's contracted vertex (components of
    those edges, numbered by minimum id), and the endpoints, incidence and
    color bits of the other edges, in sorted edge order, with the number of
    colors used more than once as the edge allowance. An edge inside one
    component becomes a loop and is dropped; that includes every unique-color
    edge."""
    if coloring.graph != g:
        raise ValueError("coloring does not belong to this graph")
    edges = g.sorted_edges()
    colors = [coloring.colors[e] for e in edges]
    uses = Counter(colors)
    unique = frozenset(e for e, c in zip(edges, colors) if uses[c] == 1)
    groups = component_masks(Graph(g.n, unique), (1 << g.n) - 1)
    image = [0] * g.n
    for x, group in enumerate(groups):
        for v in set_bits(group):
            image[v] = x
    ends: list[tuple[int, int]] = []
    bits = []
    for (u, v), c in zip(edges, colors):
        if image[u] != image[v]:
            ends.append((image[u], image[v]))
            bits.append(1 << c)
    allowance = sum(1 for count in uses.values() if count > 1)
    return image, ends, _incidence(len(groups), ends), bits, allowance


def _prune_to_terminals(edges: list[Edge], terminals: frozenset[int]) -> set[Edge]:
    """The least subtree spanning the terminals, from a tree's edges in the
    order it grew from the lowest terminal: in one reverse pass, an edge
    stays iff the vertex it added leads to a terminal."""
    seen = {min(terminals)}
    grown = []  # (tree vertex, added vertex) per edge
    for u, v in edges:
        grown.append((u, v) if u in seen else (v, u))
        seen.add(grown[-1][1])
    needed, kept = set(terminals), set()
    for e, (old, new) in zip(reversed(edges), reversed(grown)):
        if new in needed:
            needed.add(old)
            kept.add(e)
    return kept


def exists_rainbow_stree(
    g: Graph, coloring: EdgeColoring, terminals, node_budget: int | None = None
) -> TreeWitness | None:
    """Witness rainbow tree containing the terminals, or None. Raises
    SearchBudgetExceeded if the search needs more than ``node_budget`` nodes."""
    if coloring.graph != g:
        raise ValueError("coloring does not belong to this graph")
    edges = g.sorted_edges()
    bits = [1 << coloring.colors[e] for e in edges]
    terms = list(set_bits(vertex_mask(g, terminals)))
    if not terms:
        raise ValueError("terminal set must be nonempty")
    budget = _Budget(node_budget, None)
    found = _rainbow_tree(_incidence(g.n, edges), bits, terms, len(set(bits)), budget)
    if found is None:
        return None
    term_set = frozenset(terms)
    tree = _prune_to_terminals([edges[i] for i in found], term_set)
    return TreeWitness(frozenset(tree), term_set)


def is_k_rainbow_connected(
    g: Graph, coloring: EdgeColoring, k: int, node_budget: int | None = None
) -> RainbowVerdict:
    """Check every k-subset; returns the first failing subset if any.

    A subset is skipped when an earlier tree covers it: when the bitsets
    ``holds[x]`` of the trees touching its contracted vertices x share a
    bit. Each search gets ``node_budget`` nodes; one that needs more raises
    SearchBudgetExceeded, and the check stops there.
    """
    check_k(g, k)
    image, ends, inc, bits, max_edges = _contracted_search_input(g, coloring)
    holds = [0] * (max(image) + 1)  # per contracted vertex the trees touching it
    searches = 0
    for checked, subset in enumerate(itertools.combinations(range(g.n), k), 1):
        common = -1
        for v in subset:
            common &= holds[image[v]]
        if not common:
            searches += 1
            budget = _Budget(node_budget, None)
            terms = sorted({image[v] for v in subset})
            tree = _rainbow_tree(inc, bits, terms, max_edges, budget)
            if tree is None:
                return RainbowVerdict(False, subset, checked, searches)
            bit = 1 << searches
            for x in itertools.chain(terms, *[ends[i] for i in tree]):
                holds[x] |= bit
    return RainbowVerdict(True, None, checked, searches)


# ---------------------------------------------------------------------------
# Exact solver


@dataclass(frozen=True)
class ExactResult:
    status: str  # "exact" | "unknown"
    value: int | None
    lower: int
    upper: int
    coloring: EdgeColoring | None
    nodes: int

    @property
    def known(self) -> bool:
        return self.status == "exact"


def _desk_scale(g: Graph) -> bool:
    """n <= 9 or m <= 16: what ``exact_rx_k`` takes without ``force``."""
    return g.n <= 9 or g.m <= 16


def exact_rx_k(
    g: Graph,
    k: int,
    *,
    max_colors: int | None = None,
    node_budget: int | None = None,
    time_budget_s: float | None = None,
    force: bool = False,
) -> ExactResult:
    """Smallest color count admitting a k-rainbow coloring, with a witness.

    Desk scale is enforced (n <= 9 or m <= 16) unless ``force``. The search
    sweeps c upward from max(k-1, steiner diameter); each level either finds
    a coloring or exhaustively refutes it. On budget exhaustion the result is
    "unknown" with the bounds established so far. The budget and
    ``max_colors`` (a negative cap is an error) are checked before any work,
    and the deadline also covers the lower bound.
    """
    check_k(g, k)
    if not force and not _desk_scale(g):
        raise ValueError(
            "instance above desk scale (n > 9 and m > 16); pass force=True"
        )
    budget = _Budget(node_budget, time_budget_s)
    if max_colors is not None and max_colors < 0:
        raise ValueError(f"max colors must be >= 0, got {max_colors}")
    return _sweep(g, k, max(k - 1, steiner_diameter(g, k)), max_colors, budget)


def _sweep(g: Graph, k: int, lo: int, max_colors: int | None, budget) -> ExactResult:
    """Each level c from ``lo``, below n - 1 and up to ``max_colors``, finds
    a coloring or is refuted. ``lo`` must be a proven lower bound of at least
    the Steiner diameter: below it ``_tree_prune`` raises InvariantViolation."""
    c, hi = lo, g.n - 1
    cap = min(hi, max_colors) if max_colors is not None else hi
    while c < hi and c <= cap:
        try:
            found = _search_k_rainbow_coloring(g, k, c, budget)
        except SearchBudgetExceeded:
            break
        if found is not None:
            return ExactResult("exact", c, c, c, found, budget.nodes)
        c += 1
    if c == hi:  # every level below n - 1 refuted (or none below it)
        return ExactResult("exact", c, c, c, spanning_tree_coloring(g), budget.nodes)
    return ExactResult("unknown", None, c, hi, None, budget.nodes)


#: The most trees of at most c edges that ``_tree_prune`` enumerates for
#: level c; past it the level's tree pool starts small and grows by
#: ``_rainbow_tree``. Set from the in-process table in ``BENCH_30.json``.
_TREE_CAP = 20_000

_WORD = (1 << 64) - 1
#: ``bytes.translate`` tables: ``_DIGITS[j]`` writes each byte as its bit j,
#: b"0" or b"1"
_DIGITS = [bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8)]


def _search_k_rainbow_coloring(
    g: Graph, k: int, c: int, budget: _Budget
) -> EdgeColoring | None:
    """Backtracking over edge colors in canonical first-use order.

    Each node colors the edge ``pick`` chooses in every color up to one
    past the largest in use, so any edge order reaches every coloring up to
    a renaming of colors. After each placed color, ``place`` asks
    ``_tree_prune`` whether every k-subset still has a tree of at most c
    edges whose colored edges have distinct colors (uncolored edges are
    wildcards); that answer does not depend on ``_TREE_CAP``, but the
    chosen edges, and so the nodes and colorings, may. The prune
    ticks no node, and the cap bounds its enumeration, so it can overrun a
    deadline only by that bounded amount. Once every edge is colored the
    answer is the exact k-rainbow check, so complete colorings are not
    re-verified.
    """
    edges = g.sorted_edges()
    inc = _incidence(g.n, edges)
    m = len(edges)
    bits = [0] * m  # color bit per edge, 0 = uncolored
    free = list(range(m))  # the uncolored edges, in index order
    admit, retract, pick = _tree_prune(k, c, edges, inc, bits)

    def place(max_used: int):
        if not free:
            return True
        i = pick(free)
        j = free.index(i)
        del free[j]
        top = min(max_used + 1, c)
        for col in range(1, top + 1):
            budget.tick()
            bits[i] = 1 << col
            if admit(i, col):
                if place(max(max_used, col)):
                    return True
                retract()
        bits[i] = 0
        free.insert(j, i)
        return False

    try:
        if not place(0):
            return None
    finally:
        del place  # place refers to itself; free the pool when the search ends
    assign = [b.bit_length() - 1 for b in bits]
    if max(assign) != c:
        raise InvariantViolation("canonical search used fewer colors than its level")
    return EdgeColoring(g, dict(zip(edges, assign)), c)


def _tree_supports(inc, k: int, c: int) -> list[int] | None:
    """Per edge the bitset of the trees through it, over every tree of at
    most ``c`` edges and at least ``k`` vertices; None as soon as more
    than ``_TREE_CAP`` trees of at most ``c`` edges, smaller ones
    included, have been grown.

    Each tree is grown once, from its lowest vertex r, over vertices above
    r only. A tree, its frontier (the edges from it to vertices outside)
    and ``met`` (the edges that touch it or a vertex below r) are edge
    masks. A branch takes the frontier's lowest edge e, to a new vertex w:
    the child keeps the frontier's edges above e, less w's edges into the
    tree, plus w's edges outside ``met``. The branches that take later
    edges never take e, and ``met`` keeps a passed-over edge from coming
    back, so no two branches share a tree. Tree t is bit T-1-t of every
    bitset, T the trees kept: the edge masks are packed one tree per row
    into 64-bit words, least significant byte first (swapped on a
    big-endian host), so edge i sits at bit i % 8 of byte i // 8 of each
    row. That byte column, one slice, is translated to "0"/"1" digits and
    read as one binary literal, tree 0 its leading digit.
    """
    ends = {}  # per edge bit its two end vertices
    touch = [0] * len(inc)  # per vertex its edge mask
    for v, row in enumerate(inc):
        for w, i, _ in row:
            ends[1 << i] = v, w
            touch[v] |= 1 << i
    kept: list[int] = []  # edge masks
    grown = 0
    below = 0  # the edges that touch a vertex below r
    for r, near in enumerate(touch):
        # per tree to grow: its edge mask, vertex mask, frontier, met mask
        # and edges
        stack = [(0, 1 << r, near & ~below, below | near, 0)]
        below |= near
        while stack:
            tree, verts, front, met, size = stack.pop()
            size += 1  # the children's edges
            while front:
                e = front & -front
                front ^= e
                grown += 1
                if grown > _TREE_CAP:
                    return None
                if size >= k - 1:
                    kept.append(tree | e)
                if size < c:
                    x, w = ends[e]
                    if not verts >> x & 1:
                        w = x  # the end outside the tree joins it
                    step = touch[w]
                    frontier = front & ~step | step & ~met
                    stack.append((tree | e, verts | 1 << w, frontier, met | step, size))
    m = len(ends)
    if m <= 64:
        words = array("Q", kept)
    else:  # each row its words, lowest first
        words = array("Q", [tree >> s & _WORD for tree in kept for s in range(0, m, 64)])
    if sys.byteorder == "big":
        words.byteswap()
    rows = words.tobytes()
    width = (m + 63) // 64 * 8  # bytes per row
    return [int(rows[i >> 3 :: width].translate(_DIGITS[i & 7]), 2) for i in range(m)]


def _tree_prune(k: int, c: int, edges, inc, bits: list[int]):
    """``admit(i, col)``, ``retract()`` and ``pick(free)`` over a pool of trees
    of at most ``c`` edges; ``bits`` holds the partial coloring, the placed
    color included.

    A tree is live while its colored edges have distinct colors. Coloring
    edge i with col kills the live trees through i that hold an edge
    already colored col. A subset survives while a live tree contains it:
    one AND with its cover, the pool trees containing it. A placement that
    kills no live tree needs no check. ``retract`` undoes the last admitted
    placement. ``admit`` moves a subset left with no live tree to the
    front, and ``pick`` returns the edge of ``free``, the uncolored ones in
    index order, on the most live trees of the subset in front, ties to
    the lowest index (fail-first). Each cover starts as the AND of its
    vertices' pool bitsets. Up to ``_TREE_CAP`` trees the pool holds
    every tree (``_tree_supports``), so a subset with no live tree refutes
    the placement. Above it the pool starts empty, and the set-up adds a
    ``_rainbow_tree`` tree for each subset no earlier one spans, grown
    from the subset's terminal of lowest degree, ties to the lowest id,
    where a tree has the fewest first choices; a subset left with no live
    tree is searched under the partial coloring, and the tree found joins
    the pool. Either way
    ``admit`` is True iff every subset has a rainbow tree of at most c
    edges, so the pool does not change the answer; it changes ``pick``.
    """
    n = len(inc)
    through = _tree_supports(inc, k, c)
    complete = through is not None
    if not complete:
        through = [0] * len(edges)  # the pool grows by rescue
    holds = [0] * n  # per vertex the pool trees containing it
    for v, row in enumerate(inc):
        for _, i, _ in row:
            holds[v] |= through[i]  # every tree has an edge, as k >= 2
    subsets = list(itertools.combinations(range(n), k))  # in step with covers
    covers = [
        functools.reduce(operator.and_, s) for s in itertools.combinations(holds, k)
    ]
    live = [functools.reduce(operator.or_, holds)]  # after each placement
    by_color = [0] * (c + 1)  # trees with an edge colored col
    saved: list[tuple[int, int, int]] = []  # (edge, col, by_color[col]) each

    def rescue(idx: int) -> int:
        # search subset idx under the partial coloring; the tree found is
        # rainbow under every placement before it too, so it joins every
        # live entry, and each snapshot of a color it holds on an edge
        # placed earlier. Returns its bit, 0 if none
        terms = sorted(subsets[idx], key=lambda v: (len(inc[v]), v))
        tree = _rainbow_tree(inc, bits, terms, c)
        if tree is None:
            return 0
        bit = 1 << live[0].bit_length()  # the root's entry holds every tree
        for i in tree:
            through[i] |= bit
        held = 0  # the color bits the tree holds on the edges placed so far
        for j, (e, col, old) in enumerate(saved):
            if held & bits[e]:
                saved[j] = e, col, old | bit
            if through[e] & bit:
                held |= bits[e]
                by_color[col] |= bit
        verts = {v for i in tree for v in edges[i]}
        for j, subset in enumerate(subsets):
            if verts.issuperset(subset):
                covers[j] |= bit
        for j in range(len(live)):
            live[j] |= bit
        return bit

    for idx, cover in enumerate(covers):
        if not cover and not rescue(idx):  # c is at least the Steiner diameter
            raise InvariantViolation("a k-subset has no tree within the level")

    def admit(i: int, col: int) -> bool:
        tip = live[-1]
        old = by_color[col]
        kill = through[i] & old & tip
        if kill:
            tip ^= kill
            for idx, cover in enumerate(covers):
                if not tip & cover:
                    if complete or not (bit := rescue(idx)):
                        # fail-first: remember the troublemaker up front
                        covers.insert(0, covers.pop(idx))
                        subsets.insert(0, subsets.pop(idx))
                        return False
                    tip |= bit
                    old = by_color[col]
        live.append(tip)
        saved.append((i, col, old))
        by_color[col] = old | through[i]
        return True

    def retract() -> None:
        live.pop()
        _, col, old = saved.pop()
        by_color[col] = old

    def pick(free: list[int]) -> int:
        # the edge of ``free`` on the most live trees of the subset up
        # front, the first of ties
        focus = live[-1] & covers[0]
        best, most = -1, -1
        for i in free:
            count = (through[i] & focus).bit_count()
            if count > most:
                best, most = i, count
        return best

    return admit, retract, pick


# ---------------------------------------------------------------------------
# Bound formulas and the assembled report


def min_degree_upper_bound(n: int, delta: int, k: int) -> Fraction | None:
    """Decomposition-based upper bound 10 n k 2^t / (delta - 2^(t+1) + 2) - k - 2
    with 2^t <= k < 2^(t+1); None when the denominator is nonpositive."""
    if n < 1 or delta < 0 or k < 2:
        raise ValueError("requires n >= 1, delta >= 0, k >= 2")
    t = k.bit_length() - 1
    denom = delta - 2 ** (t + 1) + 2
    if denom <= 0:
        return None
    return Fraction(10 * n * k * 2**t, denom) - k - 2


@dataclass
class BoundEntry:
    value: Fraction | int | None
    source: str

    def json_value(self):
        if self.value is None:
            return None
        if isinstance(self.value, Fraction) and self.value.denominator != 1:
            return float(self.value)
        return int(self.value)


@dataclass
class BoundsReport:
    graph: Graph
    k: int
    lower: list[BoundEntry]
    upper: list[BoundEntry]
    exact: int | None
    verified: bool | None
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return {
            "graph": {"n": self.graph.n, "m": self.graph.m, "delta": self.graph.min_degree},
            "k": self.k,
            "lower": [
                {"value": e.json_value(), "source": e.source} for e in self.lower
            ],
            "upper": [
                {"value": e.json_value(), "source": e.source} for e in self.upper
            ],
            "exact": self.exact,
            "verified": self.verified,
            "runtime_ms": self.runtime_ms,
        }


#: bounds_report runs the exact solver with this node budget.
_EXACT_NODE_BUDGET = 2_000_000

#: bounds_report computes the Steiner diameter up to this many estimated
#: steps (``steiner_diameter_steps``); set from ``BENCH_32.json``.
_SDIAM_STEP_LIMIT = 10_000_000


def bounds_report(
    g: Graph, k: int, *, time_budget_s: float | None = None
) -> BoundsReport:
    """All known bounds on the k-rainbow index of g, with provenance.

    Construction-achieved color counts are included as upper bounds; entries
    that are infeasible at this size are reported with a null value rather
    than silently dropped (the Steiner diameter past ``_SDIAM_STEP_LIMIT``).
    When the value from the decomposition formula exceeds n - 1 both are
    listed; nothing is clamped. At desk scale the solver's level sweep runs
    from the largest lower entry, under ``time_budget_s`` (the sweep only);
    a refutation entry is listed only above that entry.
    """
    check_k(g, k)
    _check_budgets(None, time_budget_s)
    started = time.monotonic()
    n, delta = g.n, g.min_degree

    lower: list[BoundEntry] = [BoundEntry(k - 1, "minimum tree size (k-1)")]
    if min(steiner_diameter_steps(n, g.m, k)) <= _SDIAM_STEP_LIMIT:
        lower.append(BoundEntry(steiner_diameter(g, k), "steiner diameter"))
    else:
        lower.append(BoundEntry(None, "steiner diameter (not computed)"))

    upper: list[BoundEntry] = [BoundEntry(n - 1, "spanning tree (n-1)")]
    formula = min_degree_upper_bound(n, delta, k)
    if formula is None:
        upper.append(
            BoundEntry(
                None, "min-degree decomposition (not applicable: nonpositive denominator)"
            )
        )
    else:
        upper.append(BoundEntry(formula, "min-degree decomposition formula"))

    colorings: list[tuple[str, EdgeColoring]] = []
    pipeline_coloring, _ = color_pipeline(g, k)
    colorings.append(("construction: decomposition pipeline", pipeline_coloring))
    kdom_cert = greedy_connected_k_dominating(g, k)
    colorings.append(
        ("construction: k-dominating legs", color_kdom(g, kdom_cert, k))
    )
    if delta >= k:
        km1_cert = greedy_connected_k_dominating(g, k - 1)
        km1_coloring, _ = color_km1dom(g, km1_cert, k)
        colorings.append(("construction: (k-1)-dominating legs", km1_coloring))
    else:
        upper.append(
            BoundEntry(None, "construction: (k-1)-dominating legs (needs delta >= k)")
        )
    for label, coloring in colorings:
        upper.append(BoundEntry(coloring.color_count, label))

    if k == 2:
        upper.append(BoundEntry(Fraction(20 * n, delta), "pairwise reference: 20n/delta"))
        upper.append(
            BoundEntry(
                Fraction(3 * n, delta + 1) + 3, "pairwise reference: 3n/(delta+1)+3"
            )
        )

    exact_value: int | None = None
    if _desk_scale(g):  # in the Steiner step gate (a test pins it), so lo >= sdiam
        lo = max(e.value for e in lower if e.value is not None)
        result = _sweep(g, k, lo, None, _Budget(_EXACT_NODE_BUDGET, time_budget_s))
        exact_value = result.value
        if not result.known and result.lower > lo:
            lower.append(BoundEntry(result.lower, "exhaustive refutation (partial search)"))

    verified: bool | None = None
    if math.comb(n, k) <= 2_000 and n <= 14:
        verified = all(
            bool(is_k_rainbow_connected(g, coloring, k)) for _, coloring in colorings
        )

    runtime_ms = (time.monotonic() - started) * 1000.0
    return BoundsReport(
        graph=g,
        k=k,
        lower=lower,
        upper=upper,
        exact=exact_value,
        verified=verified,
        runtime_ms=runtime_ms,
    )
