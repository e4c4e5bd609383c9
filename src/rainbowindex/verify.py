"""Ground truth for rainbow connectivity.

* ``exists_rainbow_stree``: exhaustive backtracking for a rainbow tree
  containing a terminal set, growing a connected subgraph from the lowest
  terminal while tracking used colors. Prunes on color reuse, on failed
  states (memoized by vertex set + color set), and on terminals that become
  unreachable through edges of unused colors.
* ``is_k_rainbow_connected``: runs the search over all C(n, k) subsets in
  lexicographic order and reports the first failure.
* ``exact_rx_k``: smallest c admitting a k-rainbow coloring, by canonical
  backtracking over edge colors (color j+1 may first appear only after j),
  pruned by an optimistic per-subset feasibility check that treats uncolored
  edges as wildcards. Budget exhaustion yields an explicit unknown-with-
  bounds result, never a guess.
* ``bounds_report``: assembles lower/upper bounds with provenance labels.
"""

from __future__ import annotations

import itertools
import math
import time
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
from .graph import Edge, Graph, steiner_diameter


class SearchBudgetExceeded(RuntimeError):
    """Raised when a node budget or deadline runs out mid-search."""


@dataclass(frozen=True)
class RainbowTreeWitness:
    edges: frozenset[Edge]
    terminals: frozenset[int]
    colors: frozenset[int]

    def is_valid_for(self, g: Graph, coloring: EdgeColoring) -> bool:
        """Tree containing the terminals whose edge colors are all distinct."""
        if not self.edges <= g.edges:
            return False
        vs = set(self.terminals)
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        if len(self.edges) != len(vs) - 1:
            return False
        seen_colors = [coloring.colors[e] for e in self.edges]
        if len(set(seen_colors)) != len(seen_colors):
            return False
        if set(seen_colors) != set(self.colors):
            return False
        if not self.edges:
            return len(vs) == 1
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


@dataclass(frozen=True)
class RainbowVerdict:
    ok: bool
    failing_subset: tuple[int, ...] | None
    subsets_checked: int

    def __bool__(self) -> bool:
        return self.ok


class _StreeSearcher:
    """Reusable rainbow S-tree search over one (graph, coloring) pair."""

    def __init__(self, g: Graph, coloring: EdgeColoring):
        if coloring.graph != g:
            raise ValueError("coloring does not belong to this graph")
        self.g = g
        self.coloring = coloring
        inc: list[list[tuple[int, int, Edge]]] = [[] for _ in range(g.n)]
        for u, v in g.sorted_edges():
            bit = 1 << coloring.colors[(u, v)]
            inc[u].append((v, bit, (u, v)))
            inc[v].append((u, bit, (u, v)))
        for lst in inc:
            lst.sort()
        self.inc = [tuple(lst) for lst in inc]

    def search(
        self, terminals, node_budget: int | None = None
    ) -> RainbowTreeWitness | None:
        g = self.g
        terms = sorted(set(terminals))
        if not terms:
            raise ValueError("terminal set must be nonempty")
        for t in terms:
            if not 0 <= t < g.n:
                raise ValueError(f"terminal {t} out of range")
        term_set = frozenset(terms)
        if len(terms) == 1:
            return RainbowTreeWitness(frozenset(), term_set, frozenset())
        target = 0
        for t in terms:
            target |= 1 << t
        inc = self.inc
        memo: set[tuple[int, int]] = set()
        nodes = 0

        def reachable(tree_mask: int, used: int) -> bool:
            reach = tree_mask
            stack = [v for v in range(g.n) if (tree_mask >> v) & 1]
            while stack:
                v = stack.pop()
                for w, bit, _ in inc[v]:
                    if bit & used or (reach >> w) & 1:
                        continue
                    reach |= 1 << w
                    stack.append(w)
            return target & ~reach == 0

        def dfs(tree_mask, verts, used, edges):
            nonlocal nodes
            if target & ~tree_mask == 0:
                return edges
            key = (tree_mask, used)
            if key in memo:
                return None
            if node_budget is not None and nodes >= node_budget:
                raise SearchBudgetExceeded("rainbow tree search budget exhausted")
            nodes += 1
            if not reachable(tree_mask, used):
                memo.add(key)
                return None
            for v in verts:
                for w, bit, e in inc[v]:
                    if (tree_mask >> w) & 1 or bit & used:
                        continue
                    found = dfs(
                        tree_mask | (1 << w), verts + [w], used | bit, edges + [e]
                    )
                    if found is not None:
                        return found
            memo.add(key)
            return None

        root = terms[0]
        result = dfs(1 << root, [root], 0, [])
        if result is None:
            return None
        edges = _prune_to_terminals(result, term_set)
        colors = frozenset(self.coloring.colors[e] for e in edges)
        return RainbowTreeWitness(frozenset(edges), term_set, colors)


def _prune_to_terminals(edges: list[Edge], terminals: frozenset[int]) -> set[Edge]:
    """Drop non-terminal leaves so the witness tree stays lean."""
    remaining = set(edges)
    while True:
        deg: dict[int, int] = {}
        for u, v in remaining:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        removable = None
        for e in sorted(remaining):
            u, v = e
            if (deg[u] == 1 and u not in terminals) or (
                deg[v] == 1 and v not in terminals
            ):
                removable = e
                break
        if removable is None:
            return remaining
        remaining.remove(removable)


def exists_rainbow_stree(
    g: Graph, coloring: EdgeColoring, terminals, node_budget: int | None = None
) -> RainbowTreeWitness | None:
    """Witness rainbow tree containing the terminals, or None."""
    return _StreeSearcher(g, coloring).search(terminals, node_budget)


def is_k_rainbow_connected(
    g: Graph, coloring: EdgeColoring, k: int, node_budget: int | None = None
) -> RainbowVerdict:
    """Check every k-subset; returns the first failing subset if any."""
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    searcher = _StreeSearcher(g, coloring)
    checked = 0
    for subset in itertools.combinations(range(g.n), k):
        checked += 1
        if searcher.search(subset, node_budget) is None:
            return RainbowVerdict(False, subset, checked)
    return RainbowVerdict(True, None, checked)


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


class _Budget:
    def __init__(self, node_budget: int | None, time_budget_s: float | None):
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
    "unknown" with the bounds established so far.
    """
    if not g.is_connected:
        raise ValueError("requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    if not force and not (g.n <= 9 or g.m <= 16):
        raise ValueError(
            "instance above desk scale (n > 9 and m > 16); pass force=True"
        )
    lo = max(k - 1, steiner_diameter(g, k))
    hi = g.n - 1
    budget = _Budget(node_budget, time_budget_s)
    if lo >= hi:
        return ExactResult("exact", hi, hi, hi, spanning_tree_coloring(g), budget.nodes)
    cap = min(hi, max_colors) if max_colors is not None else hi
    c = lo
    while c <= cap:
        if c == hi:
            return ExactResult("exact", c, c, c, spanning_tree_coloring(g), budget.nodes)
        try:
            found = _search_k_rainbow_coloring(g, k, c, budget)
        except SearchBudgetExceeded:
            return ExactResult("unknown", None, c, hi, None, budget.nodes)
        if found is not None:
            return ExactResult("exact", c, c, c, found, budget.nodes)
        c += 1
    return ExactResult("unknown", None, max(cap + 1, lo), hi, None, budget.nodes)


def _search_k_rainbow_coloring(
    g: Graph, k: int, c: int, budget: _Budget
) -> EdgeColoring | None:
    """Backtracking over edge colors in canonical first-use order."""
    edges = g.sorted_edges()
    m = len(edges)
    edge_index = {e: i for i, e in enumerate(edges)}
    inc: list[tuple[tuple[int, int], ...]] = [
        tuple(
            (w, edge_index[(min(v, w), max(v, w))])
            for w in g.adj[v]
        )
        for v in range(g.n)
    ]
    subsets = [list(s) for s in itertools.combinations(range(g.n), k)]
    assign = [0] * m  # 0 = uncolored

    def optimistic_ok(terms: list[int]) -> bool:
        # Grow a tree from the lowest terminal; colored edges consume their
        # color, uncolored edges are wildcards; trees longer than c edges
        # cannot be rainbow under c colors.
        target = 0
        for t in terms:
            target |= 1 << t
        memo: set[tuple[int, int]] = set()

        def grow(tree_mask, verts, used, depth):
            if target & ~tree_mask == 0:
                return True
            if depth == c:
                return False
            key = (tree_mask, used)
            if key in memo:
                return False
            for v in verts:
                for w, ei in inc[v]:
                    if (tree_mask >> w) & 1:
                        continue
                    col = assign[ei]
                    if col and (used >> col) & 1:
                        continue
                    nused = used | (1 << col) if col else used
                    if grow(tree_mask | (1 << w), verts + [w], nused, depth + 1):
                        return True
            memo.add(key)
            return False

        root = terms[0]
        return grow(1 << root, [root], 0, 0)

    def complete_ok() -> bool:
        coloring = EdgeColoring(g, dict(zip(edges, assign)), c)
        return bool(is_k_rainbow_connected(g, coloring, k))

    def prune_ok() -> bool:
        for idx, terms in enumerate(subsets):
            if not optimistic_ok(terms):
                # fail-first: remember the troublemaker up front
                subsets.insert(0, subsets.pop(idx))
                return False
        return True

    def place(i: int, max_used: int):
        if i == m:
            return complete_ok()
        top = min(max_used + 1, c)
        for col in range(1, top + 1):
            budget.tick()
            assign[i] = col
            if prune_ok() and place(i + 1, max(max_used, col)):
                return True
        assign[i] = 0
        return False

    if place(0, 0):
        if max(assign) != c:
            raise RuntimeError("canonical search used fewer colors than its level")
        return EdgeColoring(g, dict(zip(edges, assign)), c)
    return None


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

    def best_lower(self) -> Fraction | int:
        return max(e.value for e in self.lower if e.value is not None)

    def best_upper(self) -> Fraction | int:
        return min(e.value for e in self.upper if e.value is not None)

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


def bounds_report(
    g: Graph,
    k: int,
    *,
    include_exact: bool | str = "auto",
    verify: bool | str = "auto",
    exact_node_budget: int | None = 2_000_000,
    time_budget_s: float | None = None,
    sdiam_subset_limit: int = 20_000,
) -> BoundsReport:
    """All known bounds on the k-rainbow index of g, with provenance.

    Construction-achieved color counts are included as upper bounds; entries
    that are infeasible at this size are reported with a null value rather
    than silently dropped. When the value from the decomposition formula
    exceeds n - 1 both are listed; nothing is clamped.
    """
    if not g.is_connected:
        raise ValueError("bounds_report requires a connected graph")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got {k}")
    started = time.monotonic()
    n, delta = g.n, g.min_degree

    lower: list[BoundEntry] = [BoundEntry(k - 1, "minimum tree size (k-1)")]
    if math.comb(n, k) <= sdiam_subset_limit:
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
    run_exact = include_exact is True or (
        include_exact == "auto" and (n <= 9 or g.m <= 16)
    )
    if run_exact:
        result = exact_rx_k(
            g,
            k,
            node_budget=exact_node_budget,
            time_budget_s=time_budget_s,
            force=True,
        )
        if result.known:
            exact_value = result.value
        else:
            if result.lower > k - 1:
                lower.append(
                    BoundEntry(result.lower, "exhaustive refutation (partial search)")
                )

    verified: bool | None = None
    run_verify = verify is True or (
        verify == "auto" and math.comb(n, k) <= 2_000 and n <= 14
    )
    if run_verify:
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
