"""Density-measure conventions (DESIGN.md §1)."""
import pytest

from repro.core.metrics import (
    affinity,
    avg_degree,
    edge_density,
    is_positive_clique,
    non_positive_pair,
    total_degree,
    uniform_embedding,
)

from tests.helpers import graph_from_triples


@pytest.fixture
def pair():
    return graph_from_triples([(0, 1, 10.0)])


@pytest.fixture
def clique():
    k, w = 4, 3.0
    return graph_from_triples(
        [(i, j, w) for i in range(k) for j in range(i + 1, k)]
    )


def test_pair_conventions(pair):
    S = [0, 1]
    assert total_degree(pair, S) == 20.0
    assert avg_degree(pair, S) == 10.0  # rho of an edge = its weight
    assert edge_density(pair, S) == 5.0
    assert affinity(pair, {0: 0.5, 1: 0.5}) == pytest.approx(5.0)  # w/2


def test_clique_conventions(clique):
    S = [0, 1, 2, 3]
    assert total_degree(clique, S) == 2 * 6 * 3.0
    assert avg_degree(clique, S) == pytest.approx(3.0 * 3)  # w*(k-1)
    assert affinity(clique, uniform_embedding(S)) == pytest.approx(
        3.0 * 3 / 4
    )  # w*(k-1)/k
    assert edge_density(clique, S) == pytest.approx(
        affinity(clique, uniform_embedding(S))
    )


def test_avg_degree_empty():
    g = graph_from_triples([(0, 1, 1.0)])
    assert avg_degree(g, []) == 0.0
    assert edge_density(g, []) == 0.0


def test_affinity_ignores_outside_edges(clique):
    x = {0: 0.5, 1: 0.5}
    assert affinity(clique, x) == pytest.approx(1.5)


def test_is_positive_clique():
    g = graph_from_triples([(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
    assert is_positive_clique(g, [0, 1])
    assert not is_positive_clique(g, [0, 1, 2])  # negative edge
    g2 = graph_from_triples([(0, 1, 1.0), (1, 2, 1.0)])
    assert not is_positive_clique(g2, [0, 1, 2])  # missing edge
    assert is_positive_clique(g2, [2])  # singleton


def test_non_positive_pair_first_in_order():
    g = graph_from_triples([(0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0)])
    assert non_positive_pair(g, [0, 1, 2, 3]) == (0, 2)  # missing edge
    assert non_positive_pair(g, [1, 2, 3]) == (1, 2)  # negative edge
    assert non_positive_pair(g, [2, 3]) is None


def test_negative_weights_in_density():
    g = graph_from_triples([(0, 1, 5.0), (1, 2, -3.0)])
    assert avg_degree(g, [0, 1, 2]) == pytest.approx(2 * 2.0 / 3)
    assert affinity(g, {0: 0.5, 1: 0.25, 2: 0.25}) == pytest.approx(
        2 * (0.5 * 0.25 * 5 - 0.25 * 0.25 * 3)
    )
