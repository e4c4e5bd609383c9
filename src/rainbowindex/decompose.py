"""Edge-disjoint spanning decompositions with minimum-degree guarantees.

split_two partitions the edge set into two spanning subgraphs whose degrees
differ by at most 2 at every vertex: attach an auxiliary vertex to all
odd-degree vertices, walk an Euler circuit of each component of the
augmented graph, 2-color the edges alternately along the walk, then discard
the auxiliary edges. The walk is fixed by its tie-breaks: the auxiliary
vertex's circuit comes first, then a circuit from each vertex with unwalked
edges in ascending order, and every step takes the lowest unwalked
neighbour (the auxiliary vertex last). Consequently each side keeps
minimum degree at least floor((delta - 1) / 2) where delta is the input's
minimum degree.

The walk runs over bitmask rows of unwalked neighbours, with the auxiliary
vertex as bit n, so the lowest set bit is the tie-break and walking an edge
clears it from both rows. Each side is stored as its bitmask rows: side
0's rows are OR-ed from the circuits' alternate steps (skipping the steps
through the auxiliary vertex), side 1's are the parent's rows XOR side 0's.
No side re-checks its edges or builds an edge order or edge set; a caller
that reads a side's edges builds them then, off its rows. SpanningSplit's
certificate checks the parts on rows too.

split_k iterates this halving to produce k edge-disjoint spanning parts:
with t the integer satisfying 2^t <= k < 2^(t+1) and s = k - 2^t, it keeps
k - 2s parts at the depth-t threshold (delta - 2^(t+1) + 2) / 2^t and splits
s parts once more, giving 2s parts at (delta - 2^(t+2) + 2) / 2^(t+1).
Nonpositive thresholds are reported as vacuous rather than rejected.
SpanningSplit stores no threshold: it derives them from delta and k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import ceil

from .graph import Graph, InvariantViolation


@dataclass(frozen=True)
class SpanningSplit:
    """Certificate for a k-way edge-disjoint spanning decomposition.

    Only the parent, the parts and k are stored; every claim is derived
    from them, so ``check`` trusts nothing the construction computed.
    """

    parent: Graph
    parts: tuple[Graph, ...]
    k: int

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        """Minimum-degree guarantee per part (a constraint only when
        positive), derived from the parent's minimum degree and k."""
        t = self.k.bit_length() - 1
        s = self.k - (1 << t)
        delta = self.parent.min_degree
        alpha = Fraction(delta - 2 ** (t + 1) + 2, 2**t)
        beta = Fraction(delta - 2 ** (t + 2) + 2, 2 ** (t + 1))
        return (alpha,) * (self.k - 2 * s) + (beta,) * (2 * s)

    def required_min_degrees(self) -> tuple[int | None, ...]:
        """Integer guarantee per part: ceil(threshold) when positive."""
        return tuple(
            ceil(t) if t > 0 else None for t in self.thresholds
        )

    def check(self) -> list[str]:
        """Re-validate every certificate claim; returns violation messages.

        Works on bitmask rows: a row past a graph's n reads as empty, so a
        part on another vertex count is judged on its edges as a set would.
        """
        if self.k < 1:
            return [f"k = {self.k}, expected k >= 1"]
        problems = []
        if len(self.parts) != self.k:
            problems.append(f"{len(self.parts)} parts, expected k = {self.k}")
        parent = self.parent.adj_bits
        union: list[int] = []
        shared = False
        for i, part in enumerate(self.parts):
            if part.n != self.parent.n:
                problems.append(f"part {i} is not spanning")
            rows = part.adj_bits
            if any(p & ~r for p, r in zip_longest(rows, parent, fillvalue=0)):
                problems.append(f"part {i} has foreign edges")
            shared = shared or any(p & u for p, u in zip(rows, union))
            union = [p | u for p, u in zip_longest(rows, union, fillvalue=0)]
        if shared:
            problems.append("parts are not pairwise edge-disjoint")
        if any(u != r for u, r in zip_longest(union, parent, fillvalue=0)):
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
    rows = g.adj_bits
    aux = 1 << n  # the auxiliary vertex n: the highest bit, so taken last
    odd = sum(1 << v for v, row in enumerate(rows) if row.bit_count() % 2)
    # unwalked neighbours as bitmasks; each step takes the lowest
    rest = [row | aux if odd >> v & 1 else row for v, row in enumerate(rows)]
    rest.append(odd)
    half = [0] * n  # side 0: every other step of each circuit
    for start in (n, *range(n)):
        if not rest[start]:
            continue
        stack = [start]
        order: list[int] = []
        while stack:
            v = stack.pop()
            row = rest[v]
            while row:  # follow the trail from v until it is stuck
                low = row & -row
                rest[v] = row ^ low
                stack.append(v)
                w = low.bit_length() - 1
                rest[w] = row = rest[w] ^ (1 << v)
                v = w
            order.append(v)
        order.reverse()
        for x, y in zip(order[::2], order[1::2]):
            if x != n and y != n:  # an auxiliary edge is dropped
                half[x] |= 1 << y
                half[y] |= 1 << x
    other = [row ^ h for row, h in zip(rows, half)]
    if any(h | o != row for row, h, o in zip(rows, half, other)):
        raise InvariantViolation("split_two lost edges")
    if any(h & o for h, o in zip(half, other)):
        raise InvariantViolation("split_two sides share an edge")
    for v, (h, o) in enumerate(zip(half, other)):
        if abs(h.bit_count() - o.bit_count()) > 2:
            raise InvariantViolation(f"split_two degree gap above 2 at vertex {v}")
    # the sides' edges come from g, which was checked when it was built
    first = Graph._unchecked(n, rows=tuple(half))
    second = Graph._unchecked(n, rows=tuple(other))
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
    base_parts = _pow2_parts(g, t)
    order = sorted(range(len(base_parts)), key=lambda i: (-base_parts[i].m, i))
    selected = set(order[:s])
    kept = [p for i, p in enumerate(base_parts) if i not in selected]
    split_out: list[Graph] = []
    for i in sorted(selected):
        split_out.extend(split_two(base_parts[i]))
    parts = tuple(kept + split_out)
    cert = SpanningSplit(parent=g, parts=parts, k=k)
    problems = cert.check()
    if problems:
        raise InvariantViolation(
            "split_k produced an invalid certificate: " + "; ".join(problems)
        )
    return cert
