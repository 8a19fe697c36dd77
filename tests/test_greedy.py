"""Exact Charikar greedy peeling: hand cases, invariants, flow cross-check."""
import pytest

from repro.core.greedy import greedy_peel
from repro.core.maxflow import exact_densest

from tests.helpers import (
    brute_force_densest,
    graph_from_triples,
    random_positive_graph,
    random_signed_graph,
)


def test_single_edge():
    g = graph_from_triples([(0, 1, 4.0)])
    S, rho = greedy_peel(g)
    assert S == [0, 1]
    assert rho == 4.0  # 2*w/2


def test_triangle_beats_pendant():
    g = graph_from_triples(
        [(0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0), (2, 3, 0.5)]
    )
    S, rho = greedy_peel(g)
    assert S == [0, 1, 2]
    assert rho == pytest.approx(6.0)


def test_negative_pendant_excluded():
    g = graph_from_triples([(0, 1, 5.0), (1, 2, -2.0)])
    S, rho = greedy_peel(g)
    assert S == [0, 1]
    assert rho == pytest.approx(5.0)


def test_all_negative_graph():
    g = graph_from_triples([(0, 1, -1.0), (1, 2, -4.0)])
    S, rho = greedy_peel(g)
    # The optimum is density 0; greedy may return any edgeless prefix
    # (DCSGreedy's connectivity refinement reduces it to a singleton).
    assert rho == 0.0
    assert g.subgraph_weight(S) == 0.0


def test_empty_vertex_set():
    g = graph_from_triples([], n=0)
    S, rho = greedy_peel(g)
    assert S == [] and rho == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_greedy_2_approx_on_positive_graphs(seed):
    """Charikar: rho_greedy >= rho_opt / 2 on non-negative weights."""
    g = random_positive_graph(12, 0.4, seed)
    if g.m == 0:
        pytest.skip("empty sample")
    _, rho = greedy_peel(g)
    _, opt_single = exact_densest(g)
    opt = 2.0 * opt_single  # double-counted convention
    assert rho >= opt / 2.0 - 1e-9
    assert rho <= opt + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_greedy_never_beats_brute_force(seed):
    g = random_signed_graph(10, 0.5, seed)
    _, rho = greedy_peel(g)
    _, opt = brute_force_densest(g)
    assert rho <= opt + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_greedy_density_matches_reported_set(seed):
    g = random_signed_graph(14, 0.4, seed + 100)
    S, rho = greedy_peel(g)
    assert rho == pytest.approx(2.0 * g.subgraph_weight(S) / len(S))


def test_planted_dense_block_found():
    triples = [(i, j, 5.0) for i in range(5) for j in range(i + 1, 5)]
    triples += [(5 + i, 5 + i + 1, 1.0) for i in range(6)]
    g = graph_from_triples(triples)
    S, rho = greedy_peel(g)
    assert S == [0, 1, 2, 3, 4]
    assert rho == pytest.approx(20.0)
