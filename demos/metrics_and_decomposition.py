#!/usr/bin/env python3
"""Walk through the basic building blocks: graph metrics, Steiner diameters,
and edge-disjoint spanning decompositions."""

from rainbowindex import (
    complete_graph,
    cycle_graph,
    distance,
    gnp_connected_graph,
    k_step_neighborhood,
    petersen_graph,
    split_k,
    split_two,
    steiner_diameter,
)

print("== metrics on the 6-cycle ==")
c6 = cycle_graph(6)
print("distance(0, 3) =", distance(c6, 0, 3))
print("vertices at distance exactly 2 from {0}:", k_step_neighborhood(c6, [0], 2))
# {0, 2, 4} attains it: no 4-vertex superset of it induces a connected subgraph
print("steiner 3-diameter =", steiner_diameter(c6, 3))
# k near n: the diameter works on the removable complements of the 9-sets
print("steiner 9-diameter of the 16-cycle =", steiner_diameter(cycle_graph(16), 9))

print()
print("== metrics on the Petersen graph ==")
pet = petersen_graph()
print("steiner 2-diameter (= diameter) =", steiner_diameter(pet, 2))
print("steiner 4-diameter =", steiner_diameter(pet, 4))

print()
print("== splitting a dense graph in two ==")
k9 = complete_graph(9)
first, second = split_two(k9)
print("K9 has min degree", k9.min_degree)
print("side A degrees:", [first.degree(v) for v in range(9)])
print("side B degrees:", [second.degree(v) for v in range(9)])
print("guarantee: each side keeps min degree >= floor((8-1)/2) =", (9 - 1 - 1) // 2)

print()
print("== k-way decomposition with threshold bookkeeping ==")
g = gnp_connected_graph(30, 0.5, seed=4)
print(f"G(30, 0.5): m = {g.m}, delta = {g.min_degree}")
for k in (2, 3, 5):
    cert = split_k(g, k)
    degrees = [p.min_degree for p in cert.parts]
    print(
        f"k={k}: thresholds [{', '.join(map(str, cert.thresholds))}]",
        f"part min degrees {degrees}",
        f"required {cert.required_min_degrees()}",
    )
