"""Exact Charikar greedy peeling: hand cases, invariants, brute-force
cross-checks, and bit-identity with the lazy-heap reference peel."""
import random

import pytest

from repro.core.greedy import greedy_peel
from repro.datasets import all_configs, get_dataset

from tests.helpers import (
    brute_force_densest,
    graph_from_triples,
    greedy_peel_reference,
    random_positive_graph,
    random_signed_graph,
)


def _tied_graph(seed: int, weights=(-2.0, -1.0, 1.0, 2.0)):
    """A random graph whose few distinct weights make many degree ties,
    with isolated vertices in the middle and at the end of the index
    range, and every adjacency dict in a shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    p = rng.choice([0.1, 0.3, 0.6])
    triples = [(i, j, rng.choice(weights)) for i in range(n)
               for j in range(i + 1, n) if rng.random() < p]
    g = graph_from_triples(triples, n=n + rng.randint(0, 4))
    g.adj = [dict(rng.sample(sorted(a.items()), len(a))) for a in g.adj]
    return g


@pytest.mark.parametrize("seed", range(40))
def test_peel_equals_heap_reference_with_ties(seed):
    g = _tied_graph(seed)
    assert greedy_peel(g) == greedy_peel_reference(g)


@pytest.mark.parametrize("seed", range(10))
def test_peel_equals_heap_reference_all_negative(seed):
    g = _tied_graph(seed + 1000, weights=(-2.0, -1.0))
    assert greedy_peel(g) == greedy_peel_reference(g)


@pytest.mark.parametrize("seed", range(5))
def test_peel_equals_heap_reference_uniform_weights(seed):
    g = random_signed_graph(60, 0.2, seed + 200)
    assert greedy_peel(g) == greedy_peel_reference(g)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_peel_equals_heap_reference_edgeless(n):
    g = graph_from_triples([], n=n)
    assert greedy_peel(g) == greedy_peel_reference(g)


@pytest.mark.parametrize(
    "family,config", all_configs(), ids=[f"{f}-{c}" for f, c in all_configs()]
)
def test_peel_equals_heap_reference_on_every_config(spark, family, config):
    """The two peels DCSGreedy runs, on G_D and on G_D+, bit for bit."""
    gd = get_dataset(spark, family, config, "test").local
    for g in (gd, gd.positive_part()):
        assert greedy_peel(g) == greedy_peel_reference(g)


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


def test_all_negative_rounding_falls_back_to_singleton():
    """Once the last edge is peeled, the running total is -2.22e-16, not
    0, so every prefix's density is negative and the no-positive-prefix
    cleanup returns a singleton at density 0."""
    g = graph_from_triples(
        [(0, 1, -2.4), (0, 2, -0.4), (1, 2, -1.2), (1, 3, -1.5)])
    assert greedy_peel(g) == ([0], 0.0)
    assert greedy_peel_reference(g) == ([0], 0.0)


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
    _, opt = brute_force_densest(g)
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
