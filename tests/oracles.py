"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's search code: rainbow-tree existence,
also with uncolored edges as wildcards and a cap on the edges, is decided by
enumerating spanning trees of vertex supersets (via networkx), the first
tree the search grows by a plain depth-first search with no prunes, the
trees of a graph by testing every edge subset, k-rainbow connectivity by
picking at most one edge per color class, the exact index by exhausting
canonical colorings, the Steiner k-diameter by connected vertex supersets
of every k-set (via networkx), and j-domination by counting each outside
vertex's neighbours in plain sets. The sorted adjacency rows the reference
walks use are read off the edge set alone.
"""

from __future__ import annotations

import itertools

import networkx as nx

from rainbowindex import EdgeColoring, Graph


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def sorted_rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours in ascending order, read off ``g.edges``."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        rows[u].append(v)
        rows[v].append(u)
    return tuple(tuple(sorted(row)) for row in rows)


def oracle_steiner_diameter(g: Graph, k: int) -> int:
    """Largest Steiner distance over the k-sets of vertices; a k-set's
    distance is one less than the size of its smallest vertex superset that
    induces a connected subgraph."""
    G = to_networkx(g)

    def steiner_distance(S: tuple[int, ...]) -> int:
        others = [v for v in range(g.n) if v not in S]
        for extra in range(len(others) + 1):
            for combo in itertools.combinations(others, extra):
                if nx.is_connected(G.subgraph(S + combo)):
                    return len(S) + extra - 1
        raise ValueError("terminals are not connected in the graph")

    return max(steiner_distance(S) for S in itertools.combinations(range(g.n), k))


def oracle_is_k_dominating(g: Graph, dom, j: int) -> bool:
    """Every vertex outside ``dom`` has at least j neighbours in it, counted
    over the edge set."""
    inside = set(dom)
    count = dict.fromkeys(range(g.n), 0)
    for u, v in g.edges:
        count[u] += v in inside
        count[v] += u in inside
    return all(count[v] >= j for v in range(g.n) if v not in inside)


def oracle_exists_rainbow_tree(g: Graph, coloring: EdgeColoring, terminals) -> bool:
    """Spanning-tree enumeration over connected vertex supersets of S.

    A rainbow tree has at most (number of colors) edges, so supersets larger
    than that are skipped; this keeps the sweep exact.
    """
    c = len(set(coloring.colors.values()))
    return oracle_rainbow_tree_within(g, coloring.colors, terminals, c)


def oracle_rainbow_tree_within(g: Graph, colors: dict, terminals, max_edges: int) -> bool:
    """Whether a tree with at most ``max_edges`` edges contains S and uses
    no color twice, by spanning-tree enumeration over connected vertex
    supersets of S.

    ``colors`` maps each edge to its color, or to 0 when it is uncolored.
    Every uncolored edge gets a fresh color of its own, so it never clashes.
    A tree needs one color per edge, so supersets with more vertices than
    colors are skipped.
    """
    S = sorted(set(terminals))
    if len(S) == 1:
        return True
    fresh = itertools.count(max(colors.values(), default=0) + 1)
    full = {e: col or next(fresh) for e, col in colors.items()}
    max_vertices = min(max_edges + 1, len(set(full.values())) + 1, g.n)
    if len(S) > max_vertices:
        return False
    G = to_networkx(g)
    others = [v for v in range(g.n) if v not in S]
    for extra in range(max_vertices - len(S) + 1):
        for combo in itertools.combinations(others, extra):
            T = S + list(combo)
            sub = G.subgraph(T)
            if not nx.is_connected(sub):
                continue
            for tree in nx.SpanningTreeIterator(sub):
                cols = [full[(min(u, v), max(u, v))] for u, v in tree.edges()]
                if len(set(cols)) == len(cols):
                    return True
    return False


def oracle_first_rainbow_tree(n: int, ends: list, bits: list, terms: list, max_edges: int):
    """Edge indices of the first tree a plain depth-first search finds, or
    None: grown from ``terms[0]`` one edge at a time, with no memo and no
    bound. A state's children take the tree vertices in join order, each
    with its edges in index order, and stop at the first tree that holds
    every terminal. ``bits[i]`` is edge i's color as a bit, 0 for an
    uncolored edge, which never clashes; at most ``max_edges`` edges."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (x, y) in enumerate(ends):
        inc[x].append((y, i))
        inc[y].append((x, i))
    need = set(terms)

    def dfs(verts: list[int], used: int, chosen: list[int]):
        if need <= set(verts):
            return chosen
        if len(chosen) == max_edges:
            return None
        for v in verts:
            for w, i in inc[v]:
                if w in verts or bits[i] & used:
                    continue
                found = dfs(verts + [w], used | bits[i], chosen + [i])
                if found is not None:
                    return found
        return None

    return dfs([terms[0]], 0, [])


def oracle_trees(ends: list, size: int) -> list[tuple[int, ...]]:
    """Every tree of ``size`` >= 1 edges as its sorted edge indices: each
    edge subset of that size, kept when it touches ``size + 1`` vertices
    and a walk from one of them reaches all the others."""
    trees = []
    for subset in itertools.combinations(range(len(ends)), size):
        touched = {v for i in subset for v in ends[i]}
        if len(touched) != size + 1:
            continue
        reached = {ends[subset[0]][0]}
        grew = True
        while grew:
            grew = False
            for i in subset:
                x, y = ends[i]
                if (x in reached) != (y in reached):
                    reached |= {x, y}
                    grew = True
        if len(reached) == size + 1:
            trees.append(subset)
    return trees


def _is_tree_containing(edges: list, terminals: set[int]) -> bool:
    if not edges:
        return len(terminals) <= 1
    vs: set[int] = set()
    for u, v in edges:
        vs.add(u)
        vs.add(v)
    if not terminals <= vs:
        return False
    if len(edges) != len(vs) - 1:
        return False
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def oracle_is_k_rainbow(g: Graph, colors_by_edge: dict, k: int) -> bool:
    """Pick at most one edge per color class; any such pick forming a tree
    containing S witnesses S. Independent of the library's searcher."""
    classes: dict[int, list] = {}
    for e, c in colors_by_edge.items():
        classes.setdefault(c, []).append(e)
    class_lists = [cls + [None] for cls in classes.values()]

    def subset_ok(S: set[int]) -> bool:
        need = len(S) - 1
        for pick in itertools.product(*class_lists):
            chosen = [e for e in pick if e is not None]
            if len(chosen) < need:
                continue
            if _is_tree_containing(chosen, S):
                return True
        return False

    return all(subset_ok(set(S)) for S in itertools.combinations(range(g.n), k))


def canonical_colorings(m: int, c: int):
    """All color assignments of m edges where color j+1 first appears only
    after j and the maximum color used is exactly c."""
    assign = [0] * m

    def rec(i: int, max_used: int):
        if i == m:
            if max_used == c:
                yield tuple(assign)
            return
        # cannot reach c even using a fresh color at every remaining edge
        if max_used + (m - i) < c:
            return
        for col in range(1, min(max_used + 1, c) + 1):
            assign[i] = col
            yield from rec(i + 1, max(max_used, col))
        assign[i] = 0

    yield from rec(0, 0)


def oracle_exact_rx(g: Graph, k: int) -> int:
    """Minimum c over full enumeration of canonical colorings."""
    edges = g.sorted_edges()
    for c in range(max(1, k - 1), g.n):
        for assign in canonical_colorings(len(edges), c):
            colors_by_edge = dict(zip(edges, assign))
            if oracle_is_k_rainbow(g, colors_by_edge, k):
                return c
    return g.n - 1
