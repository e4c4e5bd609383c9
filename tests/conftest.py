"""Shared corpus fixtures: a seeded family of connected graphs reused by the
acceptance suite and by slower property tests."""

from __future__ import annotations

import pytest

from rainbowindex import Graph, complete_graph, cycle_graph, gnp_connected_graph


def build_corpus() -> list[tuple[str, Graph]]:
    entries: list[tuple[str, Graph]] = []
    seed = 0
    for p in (0.2, 0.4, 0.7):
        for n in range(10, 61, 5):
            for _ in range(6):
                seed += 1
                entries.append(
                    (f"gnp-n{n}-p{p}-s{seed}", gnp_connected_graph(n, p, seed=seed))
                )
    # extra small graphs so the verification-scale criteria see n in {12, 14}
    for p in (0.2, 0.4, 0.7):
        for n in (12, 14):
            for _ in range(2):
                seed += 1
                entries.append(
                    (f"gnp-n{n}-p{p}-s{seed}", gnp_connected_graph(n, p, seed=seed))
                )
    for n in range(4, 15):
        entries.append((f"K{n}", complete_graph(n)))
    for n in range(4, 15):
        entries.append((f"C{n}", cycle_graph(n)))
    return entries


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Graph]]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[tuple[str, Graph]]:
    """The corpus graphs small enough to verify every k-subset at k <= 3:
    n <= 30. Checks at k = 4 take only those with n <= 20."""
    return [(name, g) for name, g in corpus if g.n <= 30]
