"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The corpus is seeded and deterministic (see conftest.build_corpus):
200+ connected G(n, p) graphs with n in [10, 60] and p in {0.2, 0.4, 0.7},
plus complete graphs and cycles.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from rainbowindex import (
    EdgeColoring,
    Graph,
    color_kdom,
    color_km1dom,
    color_pipeline,
    complete_graph,
    connect_two_step,
    exact_rx_k,
    exists_rainbow_stree,
    gnp_connected_graph,
    greedy_connected_k_dominating,
    greedy_two_step_dominating,
    is_k_rainbow_connected,
    min_degree_upper_bound,
    path_graph,
    split_k,
    split_two,
    steiner_diameter,
    union_connect,
)
from tests.oracles import oracle_exact_rx, oracle_exists_rainbow_tree


def report(criterion, ok, detail):
    print(f"\n[criterion-{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_decomposition_suite(corpus):
    started = time.monotonic()
    violations = []
    for name, g in corpus:
        first, second = split_two(g)
        if first.edges | second.edges != g.edges or first.edges & second.edges:
            violations.append(f"{name}: split_two is not a partition")
        bound = (g.min_degree - 1) // 2
        for v in range(g.n):
            if abs(first.degree(v) - second.degree(v)) > 2:
                violations.append(f"{name}: degree gap > 2 at {v}")
        if min(first.min_degree, second.min_degree) < bound:
            violations.append(f"{name}: split_two below floor((delta-1)/2)")
        for k in (2, 3):
            cert = split_k(g, k)
            for i, (part, need) in enumerate(
                zip(cert.parts, cert.required_min_degrees())
            ):
                if need is not None and part.min_degree < need:
                    violations.append(f"{name}: split_k({k}) part {i} below threshold")
            problems = cert.check()
            if problems:
                violations.append(f"{name}: split_k({k}) {problems}")
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 10.0
    report(1, ok, f"{len(corpus)} graphs, {len(violations)} violations, {elapsed:.1f}s (< 10s)")
    assert not violations, violations[:5]
    assert elapsed < 10.0, f"decomposition suite took {elapsed:.1f}s"


def test_criterion_2_domination_suite(corpus):
    started = time.monotonic()
    violations = []
    parts_checked = 0
    for name, g in corpus:
        cert = split_k(g, 3)
        connected_certs = []
        for i, part in enumerate(cert.parts):
            dcert = greedy_two_step_dominating(part)
            parts_checked += 1
            if not dcert.holds():
                violations.append(f"{name}: part {i} greedy certificate fails")
            if Fraction(len(dcert.vertices)) > Fraction(g.n, part.min_degree + 1):
                violations.append(f"{name}: part {i} size above n/(delta+1)")
            ccert = connect_two_step(g, part, dcert.vertices)
            if not ccert.holds():
                violations.append(f"{name}: part {i} connected certificate fails")
            if len(ccert.vertices) > 5 * len(dcert.vertices) - 4:
                violations.append(f"{name}: part {i} above 5|D|-4")
            connected_certs.append(ccert)
        merged = union_connect(g, connected_certs)
        union_size = len(set().union(*(set(c.vertices) for c in connected_certs)))
        if len(merged.vertices) - union_size > len(connected_certs) - 1:
            violations.append(f"{name}: union added more than k-1 connectors")
        if not merged.holds():
            violations.append(f"{name}: union certificate fails")
    elapsed = time.monotonic() - started
    report(2, not violations, f"{parts_checked} parts, {len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations[:5]


def test_criterion_3_pipeline_end_to_end(small_corpus):
    started = time.monotonic()
    violations = []
    runs = 0
    for name, g in small_corpus:
        for k in (2, 3, 4):
            if k > g.n or (k == 4 and g.n > 20):
                continue
            runs += 1
            coloring, trace = color_pipeline(g, k)
            expected = len(trace.core) - 1 + 2 * k
            if coloring.color_count != expected:
                violations.append(f"{name} k={k}: color count != |D|-1+2k")
            formula = min_degree_upper_bound(g.n, g.min_degree, k)
            if formula is not None and coloring.color_count >= formula:
                violations.append(f"{name} k={k}: count not below formula")
            verdict = is_k_rainbow_connected(g, coloring, k)
            if not verdict.ok:
                violations.append(f"{name} k={k}: fails at S={verdict.failing_subset}")
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 300.0
    report(3, ok, f"{runs} pipeline runs, {len(violations)} failures, {elapsed:.1f}s (< 300s)")
    assert not violations, violations[:5]
    assert elapsed < 300.0, f"pipeline suite took {elapsed:.1f}s"


def test_criterion_4_dominating_set_colorings(small_corpus):
    started = time.monotonic()
    violations = []
    kdom_runs = km1_runs = 0
    for name, g in small_corpus:
        for k in (2, 3):
            if k > g.n:
                continue
            cert = greedy_connected_k_dominating(g, k)
            if not cert.holds():
                violations.append(f"{name} k={k}: greedy k-dominating invalid")
                continue
            kdom_runs += 1
            coloring = color_kdom(g, cert, k)
            if coloring.color_count > len(cert.vertices) - 1 + k:
                violations.append(f"{name} k={k}: kdom above |D|-1+k")
            if not is_k_rainbow_connected(g, coloring, k).ok:
                violations.append(f"{name} k={k}: kdom coloring not k-rainbow")
            if g.min_degree >= k:
                km1_runs += 1
                km1_cert = greedy_connected_k_dominating(g, k - 1)
                km1_coloring, _ = color_km1dom(g, km1_cert, k)
                if km1_coloring.color_count > len(km1_cert.vertices) - 1 + k + 1:
                    violations.append(f"{name} k={k}: km1dom above |D|-1+k+1")
                if not is_k_rainbow_connected(g, km1_coloring, k).ok:
                    violations.append(f"{name} k={k}: km1dom coloring not k-rainbow")
    elapsed = time.monotonic() - started
    report(
        4,
        not violations,
        f"{kdom_runs} kdom + {km1_runs} km1dom runs, {len(violations)} failures, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]


def _exact_oracle_sample():
    """>= 50 seeded connected graphs with n <= 6, sized for full enumeration."""
    rng = random.Random(987654)
    graphs = []
    seen = set()
    while len(graphs) < 50:
        n = rng.choice([4, 5, 5, 6, 6, 6])
        p = rng.choice([0.3, 0.4, 0.5])
        try:
            g = gnp_connected_graph(n, p, seed=rng.randint(0, 10**6))
        except Exception:
            continue
        if g.m > 10 or (g.n, g.edges) in seen:
            continue
        seen.add((g.n, g.edges))
        graphs.append(g)
    return graphs


def test_criterion_5_exact_solver_oracle_agreement():
    started = time.monotonic()
    violations = []
    samples = _exact_oracle_sample()
    for idx, g in enumerate(samples):
        for k in (2, 3):
            if k > g.n:
                continue
            got = exact_rx_k(g, k)
            want = oracle_exact_rx(g, k)
            if not got.known or got.value != want:
                violations.append(
                    f"sample {idx} (n={g.n}, m={g.m}) k={k}: solver {got.value} oracle {want}"
                )
    trees = [path_graph(n) for n in (4, 6, 8)]
    trees.append(Graph.build(8, [(0, i) for i in range(1, 8)]))
    rng = random.Random(31)
    for n in (7, 8):
        edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
        trees.append(Graph.build(n, edges))
    for tree in trees:
        for k in range(2, tree.n + 1):
            got = exact_rx_k(tree, k)
            if not got.known or got.value != tree.n - 1:
                violations.append(f"tree n={tree.n} k={k}: got {got.value}")
    if exact_rx_k(complete_graph(3), 3).value != 2:
        violations.append("K3 k=3 != 2")
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 600.0
    report(
        5,
        ok,
        f"{len(samples)} oracle graphs + {len(trees)} trees, {len(violations)} mismatches, {elapsed:.1f}s (< 600s)",
    )
    assert not violations, violations[:5]
    assert elapsed < 600.0, f"exact suite took {elapsed:.1f}s"


def test_criterion_6_sandwich_property():
    violations = []
    instances = 0
    rng = random.Random(5150)
    graphs = [gnp_connected_graph(rng.choice([5, 6, 7]), 0.45, seed=rng.randint(0, 10**6)) for _ in range(12)]
    graphs += [complete_graph(5), path_graph(7)]
    for g in graphs:
        for k in (2, 3):
            result = exact_rx_k(g, k, node_budget=500_000)
            if not result.known:
                continue
            instances += 1
            lo = max(k - 1, steiner_diameter(g, k))
            if not (lo <= result.value <= g.n - 1):
                violations.append(f"n={g.n} k={k}: exact outside [lo, n-1]")
            constructions = [color_pipeline(g, k)[0]]
            constructions.append(color_kdom(g, greedy_connected_k_dominating(g, k), k))
            if g.min_degree >= k:
                constructions.append(
                    color_km1dom(g, greedy_connected_k_dominating(g, k - 1), k)[0]
                )
            for coloring in constructions:
                if not is_k_rainbow_connected(g, coloring, k).ok:
                    violations.append(f"n={g.n} k={k}: construction failed verification")
                elif result.value > coloring.color_count:
                    violations.append(f"n={g.n} k={k}: exact above verified construction")
    report(6, not violations, f"{instances} exact instances, {len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_7_formula_spot_checks():
    ok_a = min_degree_upper_bound(100, 30, 2) == Fraction(4000, 28) - 4
    ok_b = min_degree_upper_bound(100, 6, 4) is None
    report(7, ok_a and ok_b, "thm2(100,30,2) == 4000/28 - 4 and thm2(100,6,4) == not-applicable")
    assert ok_a and ok_b


def test_criterion_8_verifier_soundness_fuzz():
    started = time.monotonic()
    rng = random.Random(31337)
    disagreements = 0
    positives = negatives = 0
    for _ in range(1000):
        n = rng.randint(4, 10)
        p = rng.choice([0.3, 0.4, 0.5])
        g = gnp_connected_graph(n, p, seed=rng.randint(0, 10**6))
        c = rng.randint(2, 6)
        colors = {e: rng.randint(1, c) for e in g.sorted_edges()}
        coloring = EdgeColoring(g, colors, c)
        size = rng.randint(2, min(4, n))
        terms = sorted(rng.sample(range(n), size))
        witness = exists_rainbow_stree(g, coloring, terms)
        if witness is not None:
            positives += 1
            if not witness.is_valid_for(g, coloring):
                disagreements += 1
        else:
            negatives += 1
            if oracle_exists_rainbow_tree(g, coloring, terms):
                disagreements += 1
    elapsed = time.monotonic() - started
    report(
        8,
        disagreements == 0,
        f"1000 colorings ({positives} positive, {negatives} negative), {disagreements} disagreements, {elapsed:.1f}s",
    )
    assert disagreements == 0
