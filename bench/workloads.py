"""The four workloads: each builds a seeded pool of CLI operations.

An operation is one ``rainbowindex`` argv plus a check of its output. The
pool is written to files by ``gen`` so the program receives only generated
inputs. Shapes are fixed per workload and only the random graphs vary with
the seed, which keeps the op-cost mix, and so the figures, steady across
seeds. See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

#: construct-sparse: (n, mean degree) crossed with k and the method, each op
#: on its own graph. Sparse graphs give large cores, so the dominate layer
#: does most of the work.
SPARSE_SHAPES = [(600, 16), (600, 20)]
SPARSE_K = (2, 3, 4)
SPARSE_REPS = 2

#: construct-dense: G(n, 0.3); small cores, so decompose, colouring and
#: edge-list I/O carry the work.
DENSE_N = (300, 350, 400)
DENSE_K = (2, 3, 4)
DENSE_REPS = 4
DENSE_P = 0.3

#: certify: verify on leg colourings (n, m, k, |D|); every fourth carries a
#: planted defect. Verify cost follows the size of the dominating set D
#: (for n = 14, k = 3: about 225 ms at |D| = 9, 75 ms at |D| = 12), so graphs
#: are drawn until D has the given size. Report on (n, m, k) with m > 16 so
#: it skips exact.
VERIFY_SHAPES = [(14, 36, 3, 9), (15, 40, 3, 12), (18, 45, 2, 8), (20, 60, 2, 8)]
VERIFY_REPS = 16
REPORT_SHAPES = [(10, 22, 2), (12, 28, 3), (14, 40, 2)]
REPORT_REPS = 6

#: exact: desk-scale (n, m, k) -> count, with a fixed node budget, so no op
#: runs away and the settled share is a property of the solver, not of the
#: clock. The mix is bimodal on purpose, because solver cost per instance
#: spans three orders of magnitude: k = 2 queries (mostly under 50 nodes, a
#: few over the budget) are two thirds of the pool, so the median sits
#: inside their cluster; k = 4 always exhausts the budget (it needed 566
#: nodes or more on sample graphs) and holds the tail and most of the time.
#: Strata that settle only sometimes would make every figure swing with the
#: seed.
EXACT_MIX = {(8, 14, 2): 110, (8, 14, 4): 50}
EXACT_BUDGET = 200


@dataclass
class Op:
    """One CLI call; ``check(code, stdout)`` raises ``checks.CheckFailed`` or
    returns (upper bound on rx_k or None, settled)."""

    argv: list[str]
    check: Callable[[int, str], tuple]
    kind: str
    size: int
    #: files the op writes, besides stdout.
    outputs: tuple[Path, ...] = ()


@dataclass
class Workload:
    build: Callable[[random.Random, Path], list[Op]]
    #: spans the traced run must see called at least once.
    spans: tuple[str, ...]
    #: (span-name prefix, "majority" | "minority") of traced self time.
    design: tuple[str, str]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def construct_op(work: Path, tag: str, graph: Path, method: str, k: int, m: int) -> Op:
    out, trace = work / f"{tag}.col", work / f"{tag}.json"
    verify = checks.check_pipeline if method == "pipeline" else checks.check_kdom

    def check(code, stdout):
        checks.require(code == 0, f"color exited {code}")
        return verify(graph, out, trace, k)

    argv = ["color", "--input", str(graph), "--method", method, "--k", str(k),
            "--out", str(out), "--trace", str(trace)]
    return Op(argv, check, f"color-{method}", m, (out, trace))


def build_sparse(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for rep in range(SPARSE_REPS):
        for n, degree in SPARSE_SHAPES:
            for k in SPARSE_K:
                for method in ("pipeline", "kdom"):
                    tag = f"s{len(ops)}"
                    edges = gen.connected_gnp(rng, n, degree / (n - 1))
                    graph = _write(work / f"{tag}.edges", gen.format_edges(n, edges))
                    ops.append(construct_op(work, tag, graph, method, k, len(edges)))
    return ops


def build_dense(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for rep in range(DENSE_REPS):
        for n in DENSE_N:
            for k in DENSE_K:
                tag = f"d{len(ops)}"
                edges = gen.connected_gnp(rng, n, DENSE_P)
                graph = _write(work / f"{tag}.edges", gen.format_edges(n, edges))
                ops.append(construct_op(work, tag, graph, "pipeline", k, len(edges)))
    return ops


def build_certify(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for rep in range(VERIFY_REPS):
        for n, m, k, core in VERIFY_SHAPES:
            tag = f"v{len(ops)}"
            edges, colors, count = gen.leg_instance(rng, n, m, k, core)
            defect = gen.plant_defect(rng, n, edges, colors) if rep % 4 == 3 else None
            graph = _write(work / f"{tag}.edges", gen.format_edges(n, edges))
            coloring = _write(work / f"{tag}.col", gen.format_colors(n, colors, count))
            ops.append(verify_op(graph, coloring, n, k, m, count, defect))
    for rep in range(REPORT_REPS):
        for n, m, k in REPORT_SHAPES:
            tag = f"r{len(ops)}"
            graph = _write(work / f"{tag}.edges", gen.format_edges(n, gen.connected_gnm(rng, n, m)))
            ops.append(Op(["report", "--input", str(graph), "--k", str(k), "--format", "json"],
                          checks.check_report, "report", m))
    return ops


def verify_op(graph: Path, coloring: Path, n: int, k: int, m: int, count: int, defect) -> Op:
    if defect is None:
        def check(code, stdout):
            return checks.check_verify_ok(code, stdout, count)
    else:
        def check(code, stdout):
            return checks.check_verify_fail(code, stdout, n, k, defect)
    argv = ["verify", "--graph", str(graph), "--coloring", str(coloring), "--k", str(k)]
    return Op(argv, check, "verify", m)


def build_exact(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for (n, m, k), count in EXACT_MIX.items():
        for _ in range(count):
            tag = f"x{len(ops)}"
            edges = gen.connected_gnm(rng, n, m)
            graph = _write(work / f"{tag}.edges", gen.format_edges(n, edges))

            def check(code, stdout, n=n, edges=edges, k=k):
                return checks.check_exact(code, stdout, n, edges, k, EXACT_BUDGET)

            argv = ["exact", "--input", str(graph), "--k", str(k), "--format", "json",
                    "--node-budget", str(EXACT_BUDGET)]
            ops.append(Op(argv, check, "exact", m))
    return ops


_CONSTRUCT = ("cli.main", "graph.read_edge_list", "decompose.split_k",
              "dominate.greedy_two_step_dominating", "dominate.connect_two_step",
              "dominate.union_connect", "coloring.color_pipeline",
              "coloring.format_coloring")

WORKLOADS = {
    "construct-sparse": Workload(
        build_sparse,
        _CONSTRUCT + ("dominate.greedy_connected_k_dominating", "coloring.color_kdom"),
        ("dominate.", "majority")),
    "construct-dense": Workload(build_dense, _CONSTRUCT, ("dominate.", "minority")),
    "certify": Workload(
        build_certify,
        ("cli.main", "graph.read_edge_list", "coloring.read_coloring",
         "verify.is_k_rainbow_connected", "verify.bounds_report",
         "graph.steiner_diameter"),
        ("verify.is_k_rainbow_connected", "majority")),
    "exact": Workload(
        build_exact,
        ("cli.main", "graph.read_edge_list", "verify.exact_rx_k", "graph.steiner_diameter"),
        ("verify.exact_rx_k", "majority")),
}
