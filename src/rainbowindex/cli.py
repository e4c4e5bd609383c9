"""Command-line surface: generate / split / dominate / color / verify /
exact / report.

Exit codes: 0 success or verified, 1 verification failure, 2 usage or
format error. Every subcommand is deterministic for fixed arguments and
seed (the report's runtime_ms field excepted).

The parser is built on the first ``main`` call and reused by every later
call in the same process (parsing does not change it), so a caller that
runs many commands in one process pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .coloring import (
    color_kdom,
    color_km1dom,
    color_pipeline,
    format_coloring,
    read_coloring,
)
from .decompose import split_k
from .dominate import (
    DominationCertificate,
    greedy_connected_k_dominating,
)
from .graph import (
    GenerationError,
    ParseError,
    format_edge_list,
    generate,
    read_edge_list,
)
from .verify import bounds_report, exact_rx_k, is_k_rainbow_connected

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _certificate_json(cert: DominationCertificate) -> dict:
    out = {
        "vertices": list(cert.vertices),
        "variant": cert.kind,
        "j": cert.j,
        "connected": cert.connected,
        "size_bound": None,
    }
    if cert.size_bound is not None:
        out["size_bound"] = {
            "value": float(cert.size_bound),
            "exact": f"{cert.size_bound.numerator}/{cert.size_bound.denominator}",
            "label": cert.bound_label,
        }
    return out


def _parse_domset(source: str, g) -> tuple[int, ...]:
    if source == "all-vertices":
        return tuple(range(g.n))
    text = Path(source).read_text(encoding="utf-8")
    vertices = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        for tok in line.split("#", 1)[0].split():
            try:
                v = int(tok)
            except ValueError:
                msg = f"vertex id {tok!r} is not an integer"
                raise ParseError(msg, line_no) from None
            if not 0 <= v < g.n:
                raise ParseError(f"vertex {v} outside 0..{g.n - 1}", line_no)
            vertices.add(v)
    return tuple(sorted(vertices))


def cmd_gen(args) -> int:
    g = generate(
        args.family,
        n=args.n,
        a=args.a,
        b=args.b,
        p=args.p,
        seed=args.seed,
    )
    _write_text(args.out, format_edge_list(g))
    return EXIT_OK


def cmd_split(args) -> int:
    g = read_edge_list(args.input)
    cert = split_k(g, args.k)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, part in enumerate(cert.parts):
            (out_dir / f"part_{i}.edgelist").write_text(
                format_edge_list(part), encoding="utf-8"
            )
    else:
        for i, part in enumerate(cert.parts):
            sys.stdout.write(f"# part {i} (threshold {cert.thresholds[i]})\n")
            sys.stdout.write(format_edge_list(part))
    return EXIT_OK


def cmd_dominate(args) -> int:
    g = read_edge_list(args.input)
    if args.variant == "two-step":
        _, trace = color_pipeline(g, args.k)
        payload = {
            "parts": [_certificate_json(c) for c in trace.part_doms],
            "parts_connected": [
                _certificate_json(c) for c in trace.part_doms_connected
            ],
            "core": _certificate_json(trace.core_certificate),
        }
    else:
        cert = greedy_connected_k_dominating(g, args.j)
        payload = _certificate_json(cert)
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_color(args) -> int:
    if args.method == "pipeline" and args.domset is not None:
        raise ValueError("--domset applies to --method kdom and km1dom only")
    g = read_edge_list(args.input)
    trace_payload = None
    if args.method == "pipeline":
        coloring, trace = color_pipeline(g, args.k)
        trace_payload = {
            "core": list(trace.core),
            "tree_edges": [list(e) for e in trace.tree_edges],
            "near_sets": [sorted(s) for s in trace.near_sets],
            "far_sets": [sorted(s) for s in trace.far_sets],
            "color_count": coloring.color_count,
        }
    else:  # a leg construction, on a given or a greedy dominating set
        j = args.k if args.method == "kdom" else args.k - 1
        dom = (
            _parse_domset(args.domset, g)
            if args.domset
            else greedy_connected_k_dominating(g, j).vertices
        )
        if args.method == "kdom":
            coloring = color_kdom(g, dom, args.k)
            trace_payload = {"dominating": list(dom), "color_count": coloring.color_count}
        else:
            coloring, km1 = color_km1dom(g, dom, args.k)
            trace_payload = {
                "dominating": list(km1.dominating),
                "isolated_outside": sorted(km1.isolated_outside),
                "side_even": sorted(km1.side_even),
                "side_odd": sorted(km1.side_odd),
                "color_count": coloring.color_count,
            }
    _write_text(args.out, format_coloring(coloring))
    if args.trace is not None:
        _write_text(
            args.trace, json.dumps(trace_payload, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    coloring = read_coloring(args.coloring, g)
    verdict = is_k_rainbow_connected(g, coloring, args.k)
    if verdict.ok:
        print("OK")
        return EXIT_OK
    print(f"FAIL S={{{', '.join(map(str, verdict.failing_subset))}}}")
    return EXIT_VERIFY_FAIL


def cmd_exact(args) -> int:
    g = read_edge_list(args.input)
    result = exact_rx_k(
        g,
        args.k,
        max_colors=args.max_colors,
        node_budget=args.node_budget,
        time_budget_s=args.timeout,
        force=args.force,
    )
    if args.format == "json":
        payload = {
            "status": result.status,
            "value": result.value,
            "lower": result.lower,
            "upper": result.upper,
            "nodes": result.nodes,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if result.known:
            print(f"exact rx_{args.k} = {result.value}")
        else:
            print(f"unknown, bounds [{result.lower}, {result.upper}]")
    if args.witness is not None and result.known:
        _write_text(args.witness, format_coloring(result.coloring))
    return EXIT_OK


def _format_report_text(report) -> str:
    lines = [
        f"graph: n={report.graph.n} m={report.graph.m} delta={report.graph.min_degree}",
        f"k: {report.k}",
        "lower bounds:",
        *map(_format_entry, report.lower),
        "upper bounds:",
        *map(_format_entry, report.upper),
    ]
    lines.append(f"exact: {report.exact if report.exact is not None else 'null'}")
    lines.append(f"verified: {report.verified if report.verified is not None else 'null'}")
    lines.append(f"runtime_ms: {report.runtime_ms:.1f}")
    return "\n".join(lines) + "\n"


def _format_entry(entry) -> str:
    """One bound line: its ``json_value``, a float to three decimals."""
    value = entry.json_value()
    if value is None:
        value = "not computed"
    elif isinstance(value, float):
        value = f"{value:.3f}"
    return f"  {value:>14}  {entry.source}"


def cmd_report(args) -> int:
    g = read_edge_list(args.input)
    report = bounds_report(g, args.k, time_budget_s=args.timeout)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(_format_report_text(report))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; one shared instance per process, so callers
    must not add to it."""
    parser = argparse.ArgumentParser(
        prog="rainbowindex",
        description="k-rainbow index constructions, verification, and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    p.add_argument(
        "--family",
        required=True,
        choices=["path", "cycle", "complete", "complete_bipartite", "petersen", "gnp"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="edge-disjoint spanning decomposition (debug)")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("dominate", help="dominating-set certificates as JSON (debug)")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--variant", choices=["two-step", "multi"], default="two-step")
    p.add_argument("--k", type=int, default=2, help="part count for two-step variant")
    p.add_argument("--j", type=int, default=1, help="j for the multi variant")
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("color", help="construct a rainbow coloring")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--method", choices=["pipeline", "kdom", "km1dom"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--domset", default=None, help="vertex-set file or 'all-vertices'")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--trace", default=None, help="write trace JSON here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring is k-rainbow")
    p.add_argument("--graph", "-g", required=True)
    p.add_argument("--coloring", "-c", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact k-rainbow index on small instances")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--force", action="store_true", help="skip the desk-scale guard")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--witness",
        default=None,
        metavar="FILE",
        help="write the settling coloring here; an unknown result writes nothing",
    )
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("report", help="assembled bounds report")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
