"""Edge-disjoint spanning decompositions with minimum-degree guarantees.

split_two partitions the edge set into two spanning subgraphs whose degrees
differ by at most 2 at every vertex: attach an auxiliary vertex to all
odd-degree vertices, walk an Euler circuit of each component of the
augmented graph, 2-color the edges alternately along the walk, then discard
the auxiliary edges. Consequently each side keeps minimum degree at least
floor((delta - 1) / 2) where delta is the input's minimum degree.

split_k iterates this halving to produce k edge-disjoint spanning parts:
with t the integer satisfying 2^t <= k < 2^(t+1) and s = k - 2^t, it keeps
k - 2s parts at the depth-t threshold (delta - 2^(t+1) + 2) / 2^t and splits
s parts once more, giving 2s parts at (delta - 2^(t+2) + 2) / 2^(t+1).
Nonpositive thresholds are reported as vacuous rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .graph import Edge, Graph, InvariantViolation, edge


@dataclass(frozen=True)
class SpanningSplit:
    """Certificate for a k-way edge-disjoint spanning decomposition.

    ``thresholds[i]`` is the minimum-degree guarantee claimed for part i
    (a constraint only when positive). Exactly 2 * extra_splits parts carry
    the finer split_threshold; the rest carry base_threshold.
    """

    parent: Graph
    parts: tuple[Graph, ...]
    k: int
    pow2_level: int  # t with 2^t <= k < 2^(t+1)
    extra_splits: int  # s = k - 2^t
    base_threshold: Fraction
    split_threshold: Fraction
    thresholds: tuple[Fraction, ...]

    def required_min_degrees(self) -> tuple[int | None, ...]:
        """Integer guarantee per part: ceil(threshold) when positive."""
        return tuple(
            ceil(t) if t > 0 else None for t in self.thresholds
        )

    def check(self) -> list[str]:
        """Re-validate every certificate claim; returns violation messages."""
        problems = []
        union: set[Edge] = set()
        total = 0
        for i, part in enumerate(self.parts):
            if part.n != self.parent.n:
                problems.append(f"part {i} is not spanning")
            if not part.edges <= self.parent.edges:
                problems.append(f"part {i} has foreign edges")
            total += part.m
            union |= part.edges
        if total != len(union):
            problems.append("parts are not pairwise edge-disjoint")
        if union != set(self.parent.edges):
            problems.append("parts do not cover the parent edge set")
        for i, (part, need) in enumerate(
            zip(self.parts, self.required_min_degrees())
        ):
            if need is not None and part.min_degree < need:
                problems.append(
                    f"part {i} min degree {part.min_degree} < required {need}"
                )
        return problems


def split_two(g: Graph) -> tuple[Graph, Graph]:
    """Partition the edges into two spanning subgraphs, each with minimum
    degree >= floor((delta - 1) / 2) and per-vertex degree gap <= 2."""
    n = g.n
    aux = n
    neighbors: list[list[int]] = [list(g.adj[v]) for v in range(n)]
    neighbors.append([])
    for v in range(n):
        if len(neighbors[v]) % 2 == 1:
            neighbors[v].append(aux)
            neighbors[aux].append(v)
    used: set[Edge] = set()
    ptr = [0] * (n + 1)
    sides: tuple[set[Edge], set[Edge]] = (set(), set())

    def walk_circuit(start: int) -> None:
        stack = [start]
        order: list[int] = []
        while stack:
            v = stack[-1]
            lst = neighbors[v]
            while ptr[v] < len(lst) and edge(v, lst[ptr[v]]) in used:
                ptr[v] += 1
            if ptr[v] < len(lst):
                w = lst[ptr[v]]
                used.add(edge(v, w))
                stack.append(w)
            else:
                order.append(stack.pop())
        order.reverse()
        for i in range(len(order) - 1):
            x, y = order[i], order[i + 1]
            if x != aux and y != aux:
                sides[i % 2].add(edge(x, y))

    if neighbors[aux]:
        walk_circuit(aux)
    for v in range(n):
        while ptr[v] < len(neighbors[v]) and edge(v, neighbors[v][ptr[v]]) in used:
            ptr[v] += 1
        if ptr[v] < len(neighbors[v]):
            walk_circuit(v)

    first, second = Graph(n, frozenset(sides[0])), Graph(n, frozenset(sides[1]))
    if first.edges | second.edges != g.edges:
        raise InvariantViolation("split_two lost edges")
    if first.edges & second.edges:
        raise InvariantViolation("split_two sides share an edge")
    for v in range(n):
        if abs(first.degree(v) - second.degree(v)) > 2:
            raise InvariantViolation(f"split_two degree gap above 2 at vertex {v}")
    bound = (g.min_degree - 1) // 2
    if first.min_degree < bound or second.min_degree < bound:
        raise InvariantViolation(f"split_two side min degree below {bound}")
    return first, second


def _pow2_parts(g: Graph, level: int) -> list[Graph]:
    parts = [g]
    for _ in range(level):
        parts = [half for part in parts for half in split_two(part)]
    return parts


def split_k(g: Graph, k: int) -> SpanningSplit:
    """k edge-disjoint spanning parts per the halving scheme (k >= 1).

    When splitting s extra parts, the s parts with the largest edge counts
    are chosen (ties by part index) to preserve slack; the unsplit parts
    come first in the output, matching the threshold bookkeeping.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t = k.bit_length() - 1
    s = k - (1 << t)
    delta = g.min_degree
    alpha = Fraction(delta - 2 ** (t + 1) + 2, 2**t)
    beta = Fraction(delta - 2 ** (t + 2) + 2, 2 ** (t + 1))
    base_parts = _pow2_parts(g, t)
    if s == 0:
        parts = tuple(base_parts)
    else:
        order = sorted(range(len(base_parts)), key=lambda i: (-base_parts[i].m, i))
        selected = set(order[:s])
        kept = [p for i, p in enumerate(base_parts) if i not in selected]
        split_out: list[Graph] = []
        for i in sorted(selected):
            split_out.extend(split_two(base_parts[i]))
        parts = tuple(kept + split_out)
    thresholds = tuple([alpha] * (k - 2 * s) + [beta] * (2 * s))
    cert = SpanningSplit(
        parent=g,
        parts=parts,
        k=k,
        pow2_level=t,
        extra_splits=s,
        base_threshold=alpha,
        split_threshold=beta,
        thresholds=thresholds,
    )
    problems = cert.check()
    if problems:
        raise RuntimeError("split_k produced an invalid certificate: " + "; ".join(problems))
    return cert


def split_pow2(g: Graph, ell: int) -> SpanningSplit:
    """2^ell edge-disjoint spanning parts, threshold (delta - 2^(ell+1) + 2) / 2^ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return split_k(g, 1 << ell)
