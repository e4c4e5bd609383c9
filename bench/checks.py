"""Output checks for every benchmark operation.

The checks use only the standard library and ``gen``; they never import
``rainbowindex``, so a library change cannot weaken them. Each check raises
``CheckFailed`` with a reason, and returns the upper bound on rx_k the output
establishes (None when it establishes none) and whether the op settled.
The construction checks are O(m): they confirm the structural conditions
from which the paper's argument gives every k-set a rainbow tree.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import gen


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def read_graph(path: Path) -> tuple[int, list[tuple[int, int]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    n, _ = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1:] if line]
    return n, edges


def read_coloring(path: Path, n: int, edges) -> tuple[dict, int]:
    """Parse a coloring file and require it to colour exactly ``edges``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    head = lines[0].split()
    require(len(head) == 3, "coloring header is not 'n m c'")
    cn, cm, c = map(int, head)
    require(cn == n and cm == len(edges), "coloring header does not match the graph")
    colors: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        if not line:
            continue
        u, v, col = map(int, line.split())
        e = (min(u, v), max(u, v))
        require(e not in colors, f"edge {e} coloured twice")
        require(1 <= col <= c, f"colour {col} on {e} outside 1..{c}")
        colors[e] = col
    require(colors.keys() == set(edges), "coloured edges differ from the graph")
    return colors, c


def _rainbow_spanning(vertices: set[int], colored_edges) -> bool:
    """True if the given (edge, colour) pairs contain a spanning tree of
    ``vertices`` with distinct colours. Greedy union-find: a success is a
    witness; a failure on these constructions means no tree was coloured."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    used: set[int] = set()
    joins = 0
    for (u, v), col in colored_edges:
        if col in used:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            used.add(col)
            joins += 1
    return joins == len(vertices) - 1


def _check_core(n, adj, core: set[int], colors, c: int, fresh_above: int) -> None:
    """The core is connected, its edges coloured above ``fresh_above`` hold a
    rainbow spanning tree of it, and c <= |core| - 1 + fresh_above."""
    require(core and all(0 <= v < n for v in core), "core is empty or out of range")
    require(gen.is_connected(n, adj, within=core), "core is not connected")
    require(c <= len(core) - 1 + fresh_above, f"colour count {c} above |core| - 1 + {fresh_above}")
    inner = [
        (e, col)
        for e, col in colors.items()
        if col > fresh_above and e[0] in core and e[1] in core
    ]
    require(
        _rainbow_spanning(core, inner),
        f"core edges with colours > {fresh_above} hold no rainbow spanning tree",
    )


def _legs(n: int, core: set[int], colors, k: int) -> list[set[int]]:
    """For each vertex outside the core, the colours <= k of its edges into
    the core."""
    legs: list[set[int]] = [set() for _ in range(n)]
    for (u, v), col in colors.items():
        if col <= k and (u in core) != (v in core):
            legs[v if u in core else u].add(col)
    return legs


def check_pipeline(graph_path: Path, color_path: Path, trace_path: Path, k: int):
    n, edges = read_graph(graph_path)
    colors, c = read_coloring(color_path, n, edges)
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    require(trace["color_count"] == c, "trace colour count differs from the file")
    core = set(trace["core"])
    _check_core(n, gen.adjacency(n, edges), core, colors, c, 2 * k)
    into = _legs(n, core, colors, k)
    far: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), col in colors.items():
        if k < col <= 2 * k:
            far[u].append((v, col - k))
            far[v].append((u, col - k))
    for v in range(n):
        if v in core:
            continue
        missing = set(range(1, k + 1)) - into[v]
        for w, i in far[v]:
            if i in missing and (w in core or i in into[w]):
                missing.discard(i)
        require(not missing, f"vertex {v} cannot reach the core in parts {sorted(missing)}")
    return c, True


def check_kdom(graph_path: Path, color_path: Path, trace_path: Path, k: int):
    n, edges = read_graph(graph_path)
    colors, c = read_coloring(color_path, n, edges)
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    require(trace["color_count"] == c, "trace colour count differs from the file")
    dom = set(trace["dominating"])
    adj = gen.adjacency(n, edges)
    _check_core(n, adj, dom, colors, c, k)
    legs = _legs(n, dom, colors, k)
    for v in range(n):
        if v in dom:
            continue
        require(
            sum(1 for w in adj[v] if w in dom) >= k,
            f"vertex {v} has fewer than {k} neighbours in the dominating set",
        )
        require(len(legs[v]) == k, f"vertex {v} lacks legs of colours 1..{k}")
    return c, True


_FAIL = re.compile(r"FAIL S=\{([0-9, ]*)\}")


def first_subset_with(n: int, k: int, a: int, b: int) -> tuple[int, ...]:
    """Lexicographically first k-subset of range(n) holding both a and b."""
    rest = [v for v in range(n) if v not in (a, b)][: k - 2]
    return tuple(sorted([a, b, *rest]))


def check_verify_ok(code: int, out: str, colour_count: int):
    require(code == 0 and out.strip() == "OK", f"expected OK, got {code} {out.strip()!r}")
    return colour_count, True


def check_verify_fail(code: int, out: str, n: int, k: int, pair: tuple[int, int]):
    match = _FAIL.fullmatch(out.strip())
    require(code == 1 and match is not None, f"expected FAIL, got {code} {out.strip()!r}")
    subset = tuple(int(x) for x in match.group(1).split(","))
    require(
        len(subset) == k and len(set(subset)) == k and list(subset) == sorted(subset)
        and all(0 <= v < n for v in subset),
        f"reported S={subset} is not a sorted {k}-subset",
    )
    limit = first_subset_with(n, k, *pair)
    require(subset <= limit, f"reported S={subset} comes after {limit}")
    return None, True


def check_report(code: int, out: str):
    require(code == 0, f"report exited {code}")
    report = json.loads(out)
    require(report["verified"] is True, "report did not verify its colorings")
    lower = max(e["value"] for e in report["lower"] if e["value"] is not None)
    upper = min(e["value"] for e in report["upper"] if e["value"] is not None)
    require(lower <= upper, f"best lower {lower} above best upper {upper}")
    return upper, True


def check_exact(code: int, out: str, n: int, edges, k: int, budget: int):
    require(code == 0, f"exact exited {code}")
    result = json.loads(out)
    lo = max(k - 1, gen.diameter(n, gen.adjacency(n, edges)))
    hi = n - 1
    if result["status"] == "exact":
        value = result["value"]
        require(lo <= value <= hi, f"value {value} outside [{lo}, {hi}]")
        require(result["lower"] == result["upper"] == value, "bounds differ from value")
        require(result["nodes"] <= budget, f"{result['nodes']} nodes above budget {budget}")
        return value, True
    require(result["status"] == "unknown" and result["value"] is None, "bad status")
    lower, upper = result["lower"], result["upper"]
    require(lo <= lower <= upper <= hi, f"bounds [{lower}, {upper}] outside [{lo}, {hi}]")
    # The solver counts the node that the budget refused, so an exhausted
    # search reports budget + 1 nodes while expanding at most budget.
    require(result["nodes"] <= budget + 1, f"{result['nodes']} nodes above budget {budget}")
    return upper, False
