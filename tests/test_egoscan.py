"""EgoScan substitute: maximizes total weight, matches brute force on small graphs."""
import pytest

from repro.baselines import egoscan as egoscan_mod
from repro.baselines.egoscan import egoscan
from repro.datasets import CONFIGS, get_dataset

from tests.helpers import (
    brute_force_max_total,
    graph_from_triples,
    random_signed_graph,
)


def test_simple_positive_graph():
    g = graph_from_triples([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)])
    r = egoscan(g)
    assert r.S == [0, 1, 2]
    assert r.total_weight == pytest.approx(12.0)  # double-counted
    assert r.n_edges == 3


def test_negative_vertex_dropped():
    g = graph_from_triples([(0, 1, 5.0), (1, 2, -4.0), (0, 2, -3.0)])
    r = egoscan(g)
    assert r.S == [0, 1]
    assert r.total_weight == pytest.approx(10.0)


def test_positive_marginal_vertex_added():
    # Vertex 3 attaches with net +1 (-2 + 3): should be included.
    g = graph_from_triples(
        [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0), (2, 3, -2.0), (1, 3, 3.0)]
    )
    r = egoscan(g)
    assert r.S == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(10))
def test_local_optimality_and_upper_bound(seed):
    g = random_signed_graph(9, 0.5, seed + 70)
    if g.m == 0:
        pytest.skip("empty sample")
    r = egoscan(g)  # n = 9 < 25 seeds, so every vertex seeds a search
    _, opt = brute_force_max_total(g)
    assert r.total_weight <= 2 * opt + 1e-9
    assert r.total_weight >= 0.0
    # Local optimality of the returned set: no member contributes
    # negatively, no outsider would contribute positively.
    S = set(r.S)
    for v in range(g.n):
        d = sum(w for u, w in g.adj[v].items() if u in S)
        if v in S:
            assert d >= -1e-9
        else:
            assert d <= 1e-9


def test_all_negative_graph():
    g = graph_from_triples([(0, 1, -1.0)])
    r = egoscan(g)
    assert r.total_weight == 0.0


def test_bigger_than_densest_on_chain_of_positives():
    """EgoScan includes every net-positive attachment — subgraphs grow
    beyond what average-degree density would keep (Table VIII shape)."""
    triples = [(i, i + 1, 1.0) for i in range(20)]
    triples += [(0, 1, 9.0)]
    g = graph_from_triples([(s, d, w) for s, d, w in triples])
    r = egoscan(g)
    assert len(r.S) == 21  # the whole positive chain


def test_capped_counts_searches_stopped_at_the_step_cap(monkeypatch):
    triples = [(i, i + 1, 1.0) for i in range(20)]
    g = graph_from_triples(triples)
    assert egoscan(g).capped == 0
    # Each seed's ego net is at most 3 vertices of the 21-vertex chain, so
    # every search needs more than 3 add steps.
    monkeypatch.setattr(egoscan_mod, "MAX_STEPS", 3)
    r = egoscan(g)
    assert r.capped == 21 and len(r.S) < 21


@pytest.mark.parametrize("config", CONFIGS["dblp"])
def test_no_search_capped_on_dblp(spark, config):
    """Tables VIII/IX's EgoScan runs reach their add/drop fixed point."""
    gd = get_dataset(spark, "dblp", config, "test").local
    assert egoscan(gd).capped == 0
