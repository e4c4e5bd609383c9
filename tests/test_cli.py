import json
import random

import pytest

from rainbowindex import parse_coloring, parse_edge_list, read_edge_list
from rainbowindex.cli import build_parser, main
from tests.test_graph import spy_on_ascending_reads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "c6.edgelist"
    code, _, _ = run(capsys, "gen", "--family", "cycle", "--n", "6", "--out", str(out))
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 6 and g.m == 6


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "gen", "--family", "gnp", "--n", "20", "--p", "0.4",
            "--seed", "1", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "gnp", "--n", "5", "--p", "1.5")
    assert code == 2 and "error" in err


def test_split_partitions(tmp_path, capsys):
    graph_file = tmp_path / "g.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "6", "--out", str(graph_file))
    out_dir = tmp_path / "parts"
    code, _, _ = run(
        capsys, "split", "--input", str(graph_file), "--k", "3",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    parts = sorted(out_dir.glob("part_*.edgelist"))
    assert len(parts) == 3
    g = read_edge_list(graph_file)
    union = set()
    total = 0
    for p in parts:
        part = read_edge_list(p)
        union |= set(part.edges)
        total += part.m
    assert union == set(g.edges) and total == g.m


def test_dominate_json(tmp_path, capsys):
    graph_file = tmp_path / "g.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    code, out, _ = run(capsys, "dominate", "--input", str(graph_file), "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload.keys()) == {"parts", "parts_connected", "core"}
    assert payload["core"]["connected"] is True

    code, out, _ = run(
        capsys, "dominate", "--input", str(graph_file), "--variant", "multi", "--j", "2"
    )
    payload = json.loads(out)
    assert payload["variant"] == "multi" and payload["j"] == 2


def test_color_verify_roundtrip(tmp_path, capsys):
    graph_file = tmp_path / "k5.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    coloring_file = tmp_path / "k5.coloring"
    trace_file = tmp_path / "k5.trace.json"
    code, _, _ = run(
        capsys,
        "color", "--input", str(graph_file), "--method", "pipeline", "--k", "2",
        "--out", str(coloring_file), "--trace", str(trace_file),
    )
    assert code == 0
    trace = json.loads(trace_file.read_text())
    coloring = parse_coloring(coloring_file.read_text())
    assert coloring.color_count == len(trace["core"]) - 1 + 4

    code, out, _ = run(
        capsys,
        "verify", "--graph", str(graph_file), "--coloring", str(coloring_file),
        "--k", "2",
    )
    assert code == 0 and out.strip() == "OK"


def test_color_pipeline_output_does_not_depend_on_record_order(tmp_path, capsys, monkeypatch):
    """Record order does not reach the output: the generated document, and
    its records shuffled with half of them reversed, are both read in bulk
    to one edge order and give byte-identical colourings and traces, on a
    graph larger than the unit tests build."""
    ordered, shuffled = tmp_path / "ordered.edgelist", tmp_path / "shuffled.edgelist"
    run(capsys, "gen", "--family", "gnp", "--n", "300", "--p", "0.3", "--seed", "1",
        "--out", str(ordered))
    header, *records = ordered.read_text().splitlines(keepends=True)
    rng = random.Random(1)
    rng.shuffle(records)
    records[::2] = (" ".join(r.split()[::-1]) + "\n" for r in records[::2])
    shuffled.write_text(header + "".join(records))
    ascending_reads = spy_on_ascending_reads(monkeypatch)
    outputs = []
    for graph_file in (ordered, shuffled):
        out, trace = tmp_path / "out.col", tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "color", "--input", str(graph_file), "--method", "pipeline",
            "--k", "3", "--out", str(out), "--trace", str(trace),
        )
        assert code == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
        out.unlink()
        trace.unlink()
    assert len(ascending_reads) == 2 and ascending_reads[0] == ascending_reads[1]
    assert outputs[0] == outputs[1]


def test_verify_failure_exit_one(tmp_path, capsys):
    graph_file = tmp_path / "k3.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "3", "--out", str(graph_file))
    bad = tmp_path / "mono.coloring"
    bad.write_text("3 3 1\n0 1 1\n0 2 1\n1 2 1\n")
    code, out, _ = run(
        capsys, "verify", "--graph", str(graph_file), "--coloring", str(bad), "--k", "3"
    )
    assert code == 1
    assert out.strip() == "FAIL S={0, 1, 2}"


def test_verify_format_error_exit_two(tmp_path, capsys):
    graph_file = tmp_path / "k3.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "3", "--out", str(graph_file))
    bad = tmp_path / "missing.coloring"
    bad.write_text("3 2 1\n0 1 1\n0 2 1\n")
    code, _, err = run(
        capsys, "verify", "--graph", str(graph_file), "--coloring", str(bad), "--k", "3"
    )
    assert code == 2 and "mismatch" in err


def test_color_domset_all_vertices(tmp_path, capsys):
    graph_file = tmp_path / "k5.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    coloring_file = tmp_path / "allv.coloring"
    code, _, _ = run(
        capsys,
        "color", "--input", str(graph_file), "--method", "kdom", "--k", "2",
        "--domset", "all-vertices", "--out", str(coloring_file),
    )
    assert code == 0
    coloring = parse_coloring(coloring_file.read_text())
    assert coloring.color_count == 4  # n - 1


def test_color_domset_file(tmp_path, capsys):
    graph_file = tmp_path / "k5.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    domset_file = tmp_path / "dom.txt"
    domset_file.write_text("0 1  # a clique pair\n")
    coloring_file = tmp_path / "kdom.coloring"
    code, _, _ = run(
        capsys,
        "color", "--input", str(graph_file), "--method", "kdom", "--k", "2",
        "--domset", str(domset_file), "--out", str(coloring_file),
    )
    assert code == 0
    assert parse_coloring(coloring_file.read_text()).color_count == 3


@pytest.mark.parametrize(
    "content, message",
    [
        ("0 1\n2 x\n", "line 2: vertex id 'x' is not an integer"),
        ("0 1\n\n-1  # negative\n", "line 3: vertex -1 outside 0..4"),
        ("5\n", "line 1: vertex 5 outside 0..4"),
    ],
    ids=["non-integer", "negative", "too-large"],
)
def test_color_domset_errors_name_the_line(tmp_path, capsys, content, message):
    graph_file = tmp_path / "k5.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    domset_file = tmp_path / "dom.txt"
    domset_file.write_text(content)
    code, _, err = run(
        capsys,
        "color", "--input", str(graph_file), "--method", "kdom", "--k", "2",
        "--domset", str(domset_file),
    )
    assert code == 2 and message in err


def test_color_pipeline_rejects_domset(tmp_path, capsys):
    graph_file = tmp_path / "k5.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(graph_file))
    for domset in (str(tmp_path / "missing.txt"), "all-vertices"):
        code, out, err = run(
            capsys,
            "color", "--input", str(graph_file), "--method", "pipeline", "--k", "2",
            "--domset", domset,
        )
        assert code == 2 and "--domset" in err and out == ""


def test_color_km1dom_low_degree_diagnostic(tmp_path, capsys):
    graph_file = tmp_path / "c6.edgelist"
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out", str(graph_file))
    code, _, err = run(
        capsys,
        "color", "--input", str(graph_file), "--method", "km1dom", "--k", "3",
    )
    assert code == 2 and "minimum degree 2 < k=3" in err


def test_exact_text_and_json(tmp_path, capsys):
    graph_file = tmp_path / "k3.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "3", "--out", str(graph_file))
    code, out, _ = run(capsys, "exact", "--input", str(graph_file), "--k", "3")
    assert code == 0 and "= 2" in out
    code, out, _ = run(
        capsys, "exact", "--input", str(graph_file), "--k", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["status"] == "exact" and payload["value"] == 2


def test_exact_witness_passes_verify(tmp_path, capsys):
    graph_file, witness = tmp_path / "g.edgelist", tmp_path / "g.coloring"
    argv = ("gen", "--family", "gnp", "--n", "7", "--p", "0.5", "--seed", "3")
    run(capsys, *argv, "--out", str(graph_file))
    exact = ("exact", "--input", str(graph_file), "--k", "3")
    _, plain, _ = run(capsys, *exact)
    code, out, _ = run(capsys, *exact, "--witness", str(witness))
    assert (code, out) == (0, plain) and plain.startswith("exact rx_3 = ")
    coloring = parse_coloring(witness.read_text(), read_edge_list(graph_file))
    assert coloring.color_count == int(plain.split("= ")[1])
    verify = ("verify", "--graph", str(graph_file), "--coloring", str(witness))
    assert run(capsys, *verify, "--k", "3")[:2] == (0, "OK\n")
    # an unknown result settles nothing, so it writes no witness
    missing = tmp_path / "unknown.coloring"
    code, out, _ = run(capsys, *exact, "--node-budget", "0", "--witness", str(missing))
    assert (code, out.split(",")[0]) == (0, "unknown") and not missing.exists()


def test_exact_cap_that_refutes_every_level_below_n_minus_1(tmp_path, capsys):
    graph_file = tmp_path / "k14.edgelist"
    argv = ("gen", "--family", "complete_bipartite", "--a", "1", "--b", "4")
    run(capsys, *argv, "--out", str(graph_file))
    exact = ("exact", "--input", str(graph_file), "--k", "2")
    code, out, _ = run(capsys, *exact, "--max-colors", "3")
    assert (code, out) == (0, "exact rx_2 = 4\n")
    code, out, _ = run(capsys, *exact, "--max-colors", "2")
    assert (code, out) == (0, "unknown, bounds [3, 4]\n")
    code, out, _ = run(capsys, *exact, "--max-colors", "3", "--format", "json")
    payload = json.loads(out)
    assert (payload["status"], payload["value"], payload["nodes"]) == ("exact", 4, 14)


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--node-budget", "-5"),
        ("exact", "--timeout", "-1"),
        ("exact", "--timeout", "nan"),
        ("report", "--timeout", "-1"),
    ],
)
def test_negative_budget_exit_two(tmp_path, capsys, argv):
    graph_file = tmp_path / "c6.edgelist"
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out", str(graph_file))
    command, *options = argv
    code, out, err = run(capsys, command, "--input", str(graph_file), "--k", "2", *options)
    assert code == 2 and out == "" and "budget must be >= 0" in err


def test_negative_max_colors_exit_two(tmp_path, capsys):
    graph_file = tmp_path / "c6.edgelist"
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out", str(graph_file))
    argv = ("exact", "--input", str(graph_file), "--k", "2", "--max-colors", "-5")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: max colors must be >= 0, got -5\n")


def test_report_json_schema(tmp_path, capsys):
    graph_file = tmp_path / "p5.edgelist"
    run(capsys, "gen", "--family", "path", "--n", "5", "--out", str(graph_file))
    code, out, _ = run(
        capsys, "report", "--input", str(graph_file), "--k", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 4
    assert set(payload.keys()) == {
        "graph", "k", "lower", "upper", "exact", "verified", "runtime_ms",
    }


def test_report_text_matches_json_values(tmp_path, capsys):
    graph_file = tmp_path / "k4.edgelist"
    run(capsys, "gen", "--family", "complete", "--n", "4", "--out", str(graph_file))
    code, json_out, _ = run(
        capsys, "report", "--input", str(graph_file), "--k", "2", "--format", "json"
    )
    payload = json.loads(json_out)
    code, text_out, _ = run(
        capsys, "report", "--input", str(graph_file), "--k", "2", "--format", "text"
    )
    assert f"exact: {payload['exact']}" in text_out
    for entry in payload["lower"]:
        if entry["value"] is not None:
            assert entry["source"] in text_out
    # every upper line prints its JSON value, a float to three decimals
    upper_text = text_out.split("upper bounds:\n")[1].split("exact:")[0]
    printed = [line.strip().split("  ", 1) for line in upper_text.splitlines()]
    expected = [
        [
            "not computed" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v),
            entry["source"],
        ]
        for entry in payload["upper"]
        for v in [entry["value"]]
    ]
    assert printed == expected
    assert ["26.667", "pairwise reference: 20n/delta"] in printed


def test_report_rejects_disconnected(tmp_path, capsys):
    graph_file = tmp_path / "two.edgelist"
    graph_file.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run(capsys, "report", "--input", str(graph_file), "--k", "2")
    assert code == 2 and "connected" in err


def test_malformed_graph_file_exit_two(tmp_path, capsys):
    graph_file = tmp_path / "bad.edgelist"
    graph_file.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "exact", "--input", str(graph_file), "--k", "2")
    assert code == 2 and "loop" in err


def test_report_many_terminals_on_more_than_twenty_vertices(tmp_path, capsys):
    # k = 21 > 10 terminals on n = 22: the Steiner distance must still be
    # computed, not refused as too large for one of its two methods
    graph_file = tmp_path / "g22.edgelist"
    run(
        capsys, "gen", "--family", "gnp", "--n", "22", "--p", "0.3",
        "--seed", "1", "--out", str(graph_file),
    )
    code, out, err = run(capsys, "report", "--input", str(graph_file), "--k", "21")
    assert code == 0, err
    lower = json.loads(out)["lower"]
    assert {"source": "steiner diameter", "value": 20} in lower


def test_report_computes_the_steiner_diameter_of_a_long_cycle(tmp_path, capsys):
    # C(17, 10) = 19,448 k-subsets, each once solved on its own (28 s); the
    # removal table shares the work among them
    graph_file = tmp_path / "c17.edgelist"
    run(capsys, "gen", "--family", "cycle", "--n", "17", "--out", str(graph_file))
    code, out, err = run(capsys, "report", "--input", str(graph_file), "--k", "10")
    assert code == 0, err
    assert {"source": "steiner diameter", "value": 15} in json.loads(out)["lower"]


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # one process, one parser: a usage error, then valid calls, each giving
    # the exit code and output of a call with a freshly built parser
    graph_file = tmp_path / "c6.edgelist"
    coloring_file = tmp_path / "c6.col"
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out", str(graph_file))
    run(capsys, "color", "-i", str(graph_file), "--method", "pipeline", "--k", "2",
        "-o", str(coloring_file))
    verify = ("verify", "-g", str(graph_file), "-c", str(coloring_file), "--k", "2")
    calls = [
        ("verify", "--k", "x"),
        verify,
        verify,
        ("exact", "-i", str(graph_file), "--k", "2", "--format", "json"),
    ]

    def call(argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:
            return (exc.code, *capsys.readouterr())

    expected = []
    for argv in calls:
        build_parser.cache_clear()
        expected.append(call(argv))
    build_parser.cache_clear()
    assert [call(argv) for argv in calls] == expected
    assert [code for code, _, _ in expected] == [2, 0, 0, 0]
    assert build_parser() is build_parser()
