"""rainbowindex benchmark: seeded CLI workloads, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is construct-sparse, construct-dense, certify, exact, or ``all`` to
run every workload in turn. Each run builds the workload's pool of inputs
from the seed, then calls ``rainbowindex.cli.main(argv)`` in-process, one op
after another, over whole passes of the pool, and checks every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per traced pass.
The last line of output is one JSON object. See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS, Op, construct_op, verify_op  # noqa: E402

#: Set-up (input generation, file writes, warm-up) runs this many times; the
#: median is reported.
SETUP_REPEATS = 3

#: Every op runs in at least this many passes, seconds apart, and its time is
#: the fastest of them.
MIN_PASSES = 2

#: reference_s() at the full speed of the host the bounds were set on.
REFERENCE_S = 0.005

#: A traced run alternates this many untraced and traced passes.
TRACE_ROUNDS = 2

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "colors_mean": "colors",
    "settled_frac": "fraction",
}


def import_library():
    """Import the checkout's own ``src/rainbowindex``, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rainbowindex.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import rainbowindex from {ROOT / 'src'}: {exc}")
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        sys.exit(f"bench: imported rainbowindex from {cli.__file__}, not this checkout")
    return cli


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: Op, code, stdout: str, error: str | None):
        """Check one op's output; returns (bound, settled), or None on failure."""
        self.attempted += 1
        try:
            if error is not None:
                raise checks.CheckFailed(error)
            return op.check(code, stdout)
        except Exception as exc:  # noqa: BLE001 - any checker error is a failed op
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind} {op.argv[2]}: {exc}")
            return None

    def repeat(self, first_result) -> None:
        """Count an op whose output is byte-identical to its checked first
        pass: it passes or fails as that one did."""
        self.attempted += 1
        if first_result is None:
            self.failed += 1


def fingerprint(op: Op, code, stdout: str, error: str | None) -> bytes:
    digest = hashlib.blake2b(repr((code, stdout, error)).encode())
    for path in op.outputs:
        digest.update(path.read_bytes() if path.exists() else b"missing")
    return digest.digest()


def call(cli, op: Op):
    """Run one op in-process; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - an op that raises counts as failed
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def set_up(cli, workload, seed: int, work: Path) -> list[Op]:
    """Generate and write the pool, then warm up on the smallest op of each
    kind (untimed; its outputs are checked in the passes)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ops = workload.build(random.Random(seed), work)
    smallest: dict[str, Op] = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    for op in smallest.values():
        call(cli, op)
    return ops


def reference_s() -> float:
    """Time a fixed slice of pure-Python work (dict inserts and a sort).

    It runs between consecutive ops. The shared host slows down by up to
    2x, in spells from under a second to minutes; an op's time is scaled
    by REFERENCE_S over the mean of the reference times around it, which
    cancels most of that (about 3x less run-to-run spread than raw times).
    """
    start = time.perf_counter()
    table = {}
    for i in range(5000):
        table[(i * 7919) % 5003, i & 63] = i
    sorted(table.items())
    return time.perf_counter() - start


def run_passes(cli, ops, seconds: float, tally: Tally, tracer=None, min_passes=MIN_PASSES):
    """At least ``min_passes`` whole passes over the pool, then more while
    another pass fits in ``seconds``. Every output is checked: in full on the
    first pass, and later by comparing its bytes with the first pass's.
    Returns each op's fastest scaled time, its fastest raw time, the first
    pass's check results and the pass count."""
    best = [math.inf] * len(ops)
    raw = [math.inf] * len(ops)
    first: list = []
    prints: list[bytes] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        before = reference_s()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            elapsed, code, stdout, error = call(cli, op)
            after = reference_s()
            best[i] = min(best[i], elapsed * 2 * REFERENCE_S / (before + after))
            raw[i] = min(raw[i], elapsed)
            before = after
            if passes == 0:
                first.append(tally.record(op, code, stdout, error))
                prints.append(fingerprint(op, code, stdout, error))
            elif fingerprint(op, code, stdout, error) == prints[i]:
                tally.repeat(first[i])
            else:
                tally.record(op, code, stdout, error)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > seconds:
            return best, raw, first, passes


def percentile(sorted_values, q: float) -> float:
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(pool_size: int) -> int:
    """Highest whole percentile with at least ten of the pool's ops beyond it;
    fixed by the pool, so a faster program is not held to a higher one."""
    return max(50, math.floor(100 * (1 - 10 / pool_size)))


def end_to_end(best, first, setup_s) -> tuple[dict, str]:
    ordered = sorted(best)
    q = tail_percentile(len(best))
    bounds = [r[0] for r in first if r is not None and r[0] is not None]
    settled = [r[1] for r in first if r is not None]
    values = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": percentile(ordered, 50) * 1000.0,
        "op_tail_ms": percentile(ordered, q) * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "colors_mean": statistics.fmean(bounds) if bounds else float("nan"),
        "settled_frac": sum(settled) / len(best),
    }
    return values, f"op_tail_ms is p{q} of {len(best)} per-op times"


def per_layer(layers, passes: int, overhead: float) -> dict:
    values: dict[str, tuple[float, str]] = {}
    for mod, fn in tracing.TRACED:
        name = f"{mod}.{fn}"
        row = layers.get(name, {})
        values[f"{name}.calls"] = (row.get("calls", 0) / passes, "count")
        values[f"{name}.total_ms"] = (row.get("total_ms", 0.0) / passes, "ms")
        values[f"{name}.self_ms"] = (row.get("self_ms", 0.0) / passes, "ms")
        for key in tracing.COUNTS.get(name, []):
            values[f"{name}.{key}"] = (row.get(key, 0) / passes, "count")
    verifier = layers.get("verify.is_k_rainbow_connected", {})
    for verdict in ("ok", "fail"):
        values[f"verify.is_k_rainbow_connected.{verdict}.self_ms"] = (
            verifier.get(f"{verdict}.self_ms", 0.0) / passes, "ms")
    solver = layers.get("verify.exact_rx_k", {})
    solver_s = solver.get("total_ms", 0.0) / 1000.0
    values["verify.exact_rx_k.nodes_per_s"] = (
        solver.get("nodes", 0) / solver_s if solver_s else 0.0, "1/s")
    values["trace.overhead_frac"] = (overhead, "fraction")
    return values


def design_note(workload, layers) -> str:
    prefix, expect = workload.design
    total = sum(row["self_ms"] for row in layers.values())
    share = sum(row["self_ms"] for name, row in layers.items() if name.startswith(prefix)) / total
    holds = share > 0.5 if expect == "majority" else share < 0.25
    verdict = "as designed" if holds else "CONTRADICTS the workload design"
    return f"{prefix}* self time is {share:.1%} of traced time (expected {expect}): {verdict}"


def self_check(cli, work: Path) -> None:
    """Feed the checker a corrupted colouring of each construction and a
    wrong verify verdict each way; every one must count as a failed op."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(0)
    n, k = 80, 3
    edges = gen.connected_gnp(rng, n, 10 / (n - 1))
    graph = work / "self.edges"
    graph.write_text(gen.format_edges(n, edges), encoding="utf-8")
    tally = Tally()
    cases = 0
    for method in ("kdom", "pipeline"):
        op = construct_op(work, f"self-{method}", graph, method, k, len(edges))
        _, code, stdout, error = call(cli, op)
        _recolor_leg(op, k, method)
        tally.record(op, code, stdout, error)
        cases += 1
    small_edges = gen.connected_gnm(rng, 12, 26)
    small = work / "self-small.edges"
    small.write_text(gen.format_edges(12, small_edges), encoding="utf-8")
    colors, count = gen.leg_coloring(12, small_edges, 2)
    coloring = work / "self-small.col"
    coloring.write_text(gen.format_colors(12, colors, count), encoding="utf-8")
    positive = verify_op(small, coloring, 12, 2, 26, count, None)
    tally.record(positive, 1, "FAIL S={0, 1}\n", None)
    defect = gen.plant_defect(rng, 12, small_edges, colors)
    negative = verify_op(small, coloring, 12, 2, 26, count, defect)
    tally.record(negative, 0, "OK\n", None)
    cases += 2
    if tally.failed != cases:
        sys.exit(f"bench: checker self-check passed {cases - tally.failed} of {cases} bad outputs")


def _recolor_leg(op: Op, k: int, method: str) -> None:
    """Recolour the lowest outside vertex's colour-2 leg (kdom), or its
    part-2 legs (pipeline: colours 2 and k + 2), to colour 1."""
    out, trace_file = op.outputs
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    core = set(trace["dominating" if method == "kdom" else "core"])
    lines = out.read_text(encoding="utf-8").split("\n")
    n = int(lines[0].split()[0])
    target = min(v for v in range(n) if v not in core)
    spoil = {2} if method == "kdom" else {2, k + 2}
    for i, line in enumerate(lines[1:], start=1):
        if line:
            u, v, col = map(int, line.split())
            if target in (u, v) and col in spoil:
                lines[i] = f"{u} {v} 1"
    out.write_text("\n".join(lines), encoding="utf-8")


def run_workload(cli, import_s: float, name: str, seed: int, seconds: float, traced: bool):
    workload = WORKLOADS[name]
    work = HERE / "_work" / name
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = set_up(cli, workload, seed, work)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    tally = Tally()
    lines = [f"workload {name} seed {seed}: pool of {len(ops)} ops"]
    if not traced:
        best, raw, first, passes = run_passes(cli, ops, seconds, tally)
        values, note = end_to_end(best, first, setup_s)
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
        lines.append(f"{passes} passes; each op's time is its fastest, scaled; {note}")
        lines.append(f"unscaled: {len(raw) / sum(raw):.4g} ops/s, "
                     f"p50 {percentile(sorted(raw), 50) * 1000:.4g} ms")
        lines.append(f"fail_frac {tally.failed / tally.attempted:.4g} fraction "
                     f"({tally.failed} of {tally.attempted})")
    else:
        # Untraced and traced passes alternate, so a slow spell of the host
        # does not land on one side only.
        tracer = tracing.Tracer()
        plain = traced = [math.inf] * len(ops)
        for _ in range(TRACE_ROUNDS):
            best, _, _, _ = run_passes(cli, ops, 0, tally, min_passes=1)
            plain = list(map(min, plain, best))
            tracer.install()
            try:
                best, _, _, _ = run_passes(cli, ops, 0, tally, tracer, min_passes=1)
            finally:
                tracer.remove()
            traced = list(map(min, traced, best))
        passes = TRACE_ROUNDS
        overhead = 1.0 - sum(plain) / sum(traced)
        tracer.write(work / "spans.jsonl")
        layers = tracer.layers()
        silent = [span for span in workload.spans if not layers.get(span, {}).get("calls")]
        if silent:
            sys.exit(f"bench: traced run recorded no calls of {', '.join(silent)}; "
                     "a traced name is no longer where its callers look it up")
        metrics = per_layer(layers, passes, overhead)
        lines.append(f"{passes} traced pass(es); per-layer values are per traced pass")
        lines.append(design_note(workload, layers))
    self_check(cli, work / "self")
    return metrics, tally, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    cli = import_library()
    import_s = time.perf_counter() - STARTED
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        values, tally, lines = run_workload(
            cli, import_s, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for line in lines:
            print(line)
        for key, (value, unit) in values.items():
            print(f"  {prefix}{key} {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        for reason in tally.reasons:
            print(f"  FAILED {reason}", file=sys.stderr)
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
