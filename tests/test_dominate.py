from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    DominationCertificate,
    Graph,
    complete_graph,
    connect_two_step,
    cycle_graph,
    greedy_connected_k_dominating,
    greedy_two_step_dominating,
    is_k_dominating,
    is_k_step_dominating,
    path_graph,
    split_k,
    union_connect,
)
from tests.oracles import oracle_is_k_dominating, sorted_rows
from tests.test_graph import connected_graphs


# ---------------------------------------------------------------------------
# Predicates


def test_step_predicate_examples():
    assert is_k_step_dominating(complete_graph(5), [0], 1)
    c5 = cycle_graph(5)
    assert is_k_step_dominating(c5, [0], 2)
    assert not is_k_step_dominating(c5, [0], 1)
    c6 = cycle_graph(6)  # vertex 3 sits at distance 3 from vertex 0
    assert not is_k_step_dominating(c6, [0], 2)
    assert is_k_step_dominating(c6, [0], 3)
    assert not is_k_step_dominating(path_graph(7), [3], 2)


def test_multi_predicate_examples():
    assert is_k_dominating(complete_graph(4), [0, 1], 2)
    assert not is_k_dominating(cycle_graph(5), [0, 1], 2)
    g = cycle_graph(5)
    assert is_k_dominating(g, range(5), 7)  # vacuous: no outside vertices


@settings(max_examples=150, deadline=None)
@given(connected_graphs(min_n=2, max_n=12), st.data(), st.integers(0, 5))
def test_multi_predicate_matches_oracle(g, data, j):
    dom = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    assert is_k_dominating(g, dom, j) == oracle_is_k_dominating(g, dom, j)


@pytest.mark.parametrize("pred", [is_k_step_dominating, is_k_dominating])
@pytest.mark.parametrize("dom, bad", [([1, 2, -1], -1), ([1, 2, 4], 4), ([7, 1, -1], -1)])
def test_predicates_name_the_lowest_vertex_out_of_range(pred, dom, bad):
    # a vertex outside 0..n-1 is an error, never a vertex that is ignored
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        pred(path_graph(4), dom, 1)


def test_predicates_reject_empty_set():
    for pred in (is_k_step_dominating, is_k_dominating):
        with pytest.raises(ValueError):
            pred(cycle_graph(4), [], 1)


def test_certificate_of_unknown_kind_never_holds():
    # the whole vertex set meets either kind's predicate, so only the kind
    # lookup can refuse it
    k4 = complete_graph(4)
    for kind in ("step", "multi"):
        assert DominationCertificate(k4, (0, 1, 2, 3), kind, 1, True).holds()
    assert not DominationCertificate(k4, (0, 1, 2, 3), "way", 1, True).holds()


# ---------------------------------------------------------------------------
# Greedy 2-step dominating sets


def test_greedy_two_step_complete():
    for n in (3, 5, 8):
        cert = greedy_two_step_dominating(complete_graph(n))
        assert cert.vertices == (0,)
        assert cert.holds()


def test_greedy_two_step_c5():
    cert = greedy_two_step_dominating(cycle_graph(5))
    assert cert.vertices == (0,)
    assert cert.size_bound == Fraction(5, 3)


def test_greedy_two_step_p7_hand_simulation():
    # seed 0; N^3 = {3} -> add 3; N^3 = {6} -> add 6; done
    cert = greedy_two_step_dominating(path_graph(7))
    assert cert.vertices == (0, 3, 6)
    assert cert.holds()
    assert Fraction(len(cert.vertices)) <= Fraction(7, 2)


def test_greedy_two_step_isolated_vertices():
    g = Graph.build(4, [(0, 1)])  # two isolated vertices, delta 0
    cert = greedy_two_step_dominating(g)
    assert set(cert.vertices) == {0, 2, 3}
    assert cert.size_bound == Fraction(4, 1)
    assert cert.holds()


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_n=10))
def test_greedy_two_step_bound_random(g):
    cert = greedy_two_step_dominating(g)
    assert cert.holds()
    assert Fraction(len(cert.vertices)) <= Fraction(g.n, g.min_degree + 1)


# ---------------------------------------------------------------------------
# Connecting


def test_connect_identity_when_connected():
    k5 = complete_graph(5)
    cert = connect_two_step(k5, k5, [0])
    assert cert.vertices == (0,)
    assert cert.connected and cert.holds()


def test_connect_p7():
    p7 = path_graph(7)
    cert = connect_two_step(p7, p7, [0, 3, 6])
    assert cert.vertices == tuple(range(7))
    assert len(cert.vertices) <= 5 * 3 - 4
    assert cert.holds()


def test_connect_c8_adds_one_arc():
    c8 = cycle_graph(8)
    cert = connect_two_step(c8, c8, [0, 4])
    assert cert.vertices == (0, 1, 2, 3, 4)
    assert len(cert.vertices) <= 5 * 2 - 4


def test_connect_rejects_non_dominating_input():
    c8 = cycle_graph(8)
    with pytest.raises(ValueError):
        connect_two_step(c8, c8, [0])


def test_connect_measures_domination_in_part():
    # D = {0, 3} 2-step dominates C6 but not the 6-vertex matching part
    c6 = cycle_graph(6)
    part = Graph(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        connect_two_step(c6, part, [0, 3])


@pytest.mark.parametrize("shape", ["foreign edge", "other n"])
def test_connect_rejects_a_part_that_is_no_spanning_subgraph(shape):
    # C6 less the edge 0-5 is a path; the part gets 0-5 back, or a 7th vertex
    host = path_graph(6)
    if shape == "foreign edge":
        part = cycle_graph(6)
    else:
        part = Graph(7, host.edges)
    with pytest.raises(ValueError, match="part must be a spanning subgraph"):
        connect_two_step(host, part, [1, 4])
    connect_two_step(host, host, [1, 4])  # the same set on the host itself


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=10))
def test_connect_bound_random(g):
    base = greedy_two_step_dominating(g)
    cert = connect_two_step(g, g, base.vertices)
    assert cert.holds()
    assert len(cert.vertices) <= 5 * len(base.vertices) - 4


# ---------------------------------------------------------------------------
# Union


def _step2_cert(g, vertices):
    return DominationCertificate(g, tuple(sorted(vertices)), "step", 2, True)


def test_union_single_input_unchanged():
    c4 = cycle_graph(4)
    cert = union_connect(c4, [_step2_cert(c4, [0])])
    assert cert.vertices == (0,)


def test_union_touching_inputs_no_connectors():
    c4 = cycle_graph(4)
    cert = union_connect(c4, [_step2_cert(c4, [0]), _step2_cert(c4, [1])])
    assert cert.vertices == (0, 1)


def test_union_distance_two_inputs_single_midpoint():
    c4 = cycle_graph(4)
    cert = union_connect(c4, [_step2_cert(c4, [0]), _step2_cert(c4, [2])])
    assert cert.vertices == (0, 1, 2)
    assert cert.holds()


def test_union_rejects_invalid_inputs():
    c8 = cycle_graph(8)
    with pytest.raises(ValueError):
        union_connect(c8, [_step2_cert(c8, [0])])  # not 2-step dominating
    # 0 and 4 are 2-step dominating, but four steps apart
    assert DominationCertificate(c8, (0, 4), "step", 2, False).holds()
    cert = _step2_cert(c8, [0, 4])
    assert not cert.holds()
    with pytest.raises(ValueError, match="not a connected 2-step dominating set"):
        union_connect(c8, [cert])
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not a connected 2-step dominating set"):
        union_connect(c4, [_step2_cert(c4, [0]), _step2_cert(c4, [])])


def test_union_connector_budget_on_split_parts(corpus):
    name, g = next((nm, gg) for nm, gg in corpus if gg.n == 20)
    cert = split_k(g, 3)
    parts_doms = [greedy_two_step_dominating(p) for p in cert.parts]
    connected = [
        connect_two_step(g, p, d.vertices)
        for p, d in zip(cert.parts, parts_doms)
    ]
    merged = union_connect(g, connected)
    union_size = len(set().union(*(set(c.vertices) for c in connected)))
    assert len(merged.vertices) - union_size <= len(connected) - 1
    assert merged.holds()


# ---------------------------------------------------------------------------
# Greedy connected k-dominating


def test_greedy_k_dominating_k4():
    cert = greedy_connected_k_dominating(complete_graph(4), 2)
    assert len(cert.vertices) == 2
    assert cert.holds()


def test_greedy_k_dominating_zero_is_seed_only():
    cert = greedy_connected_k_dominating(cycle_graph(5), 0)
    assert len(cert.vertices) == 1


def test_greedy_k_dominating_c5():
    cert = greedy_connected_k_dominating(cycle_graph(5), 2)
    assert cert.holds()
    adj = sorted_rows(cycle_graph(5))
    for v in range(5):
        if v not in cert.vertices:
            inside = sum(1 for w in adj[v] if w in cert.vertices)
            assert inside >= 2


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=10), st.integers(1, 3))
def test_greedy_k_dominating_random(g, j):
    cert = greedy_connected_k_dominating(g, j)
    assert cert.holds()
