"""DCSGreedy (Algorithm 2): hand cases including the paper's Fig. 1 graph."""
import numpy as np
import pandas as pd
import pytest

from repro.core.dcsad import dcs_greedy
from repro.core.metrics import avg_degree
from repro.datasets import all_configs, get_dataset
from repro.graph.local import LocalGraph, from_edge_pandas

from tests.helpers import (
    brute_force_densest,
    graph_from_triples,
    random_signed_graph,
)


def fig1_difference_graph():
    """The difference graph G_D of the paper's Fig. 1.

    G1: (v1,v3)=1, (v2,v3)=2, (v3,v4)=3; G2: (v1,v2)=1, (v2,v3)=3,
    (v3,v4)=1 — G_D: (v1,v2)=+1, (v1,v3)=-1, (v2,v3)=+1, (v3,v4)=-2.
    (Vertices v1..v4 -> 0..3.)
    """
    return graph_from_triples(
        [(0, 1, 1.0), (0, 2, -1.0), (1, 2, 1.0), (2, 3, -2.0)]
    )


def test_fig1_dcs():
    g = fig1_difference_graph()
    r = dcs_greedy(g)
    # Best subset: {v1, v2} with rho = 1 (the {v1,v2,v3} set has
    # rho = 2*(1-1+1)/3 = 2/3).
    assert r.S == [0, 1]
    assert r.rho == pytest.approx(1.0)


def test_no_positive_edges_returns_singleton():
    g = graph_from_triples([(0, 1, -1.0), (1, 2, -2.0)])
    r = dcs_greedy(g)
    assert len(r.S) == 1
    assert r.rho == 0.0


def test_heaviest_weight_negative_is_case_1():
    """Weights from -1e-3 to -40, none positive: a single vertex, rho 0."""
    g = graph_from_triples([(0, 1, -0.5), (1, 2, -40.0), (2, 3, -1e-3),
                            (0, 3, -7.0)])
    r = dcs_greedy(g)
    assert (r.S, r.rho, r.ratio, r.candidates) == ([0], 0.0, 1.0, {})


def test_max_edge_ties_go_to_the_first_edge_in_index_order():
    """Three edges share the top weight; vertex 0 touches only negative
    edges. The candidate is (1, 3): the lowest vertex on a heaviest edge,
    then its lowest heaviest partner."""
    g = graph_from_triples([(0, 1, -2.0), (0, 2, -1.0), (2, 5, 5.0),
                            (1, 4, 5.0), (1, 3, 5.0), (3, 4, 1.0)])
    assert dcs_greedy(g).candidates["max_edge"] == ([1, 3], 5.0)


@pytest.mark.parametrize("seed", range(5))
def test_max_edge_is_the_first_heaviest_edge(seed):
    """Integer weights in [-3, 3] tie often; the candidate is the first
    heaviest (i, j), i < j, in index order."""
    rng = np.random.default_rng(seed + 70)
    triples = [(i, j, float(rng.integers(-3, 4)))
               for i in range(14) for j in range(i + 1, 14)
               if rng.random() < 0.3]
    g = graph_from_triples(triples)
    edges = [(w, i, j) for i in range(g.n) for j, w in g.adj[i].items()
             if i < j]
    top = max(w for w, _, _ in edges)
    first = min((i, j) for w, i, j in edges if w == top)
    assert dcs_greedy(g).candidates["max_edge"][0] == list(first)


@pytest.mark.parametrize(
    "family,config", all_configs(), ids=[f"{f}-{c}" for f, c in all_configs()]
)
def test_scale_equivariant_under_powers_of_two(spark, family, config):
    """Scaling every weight by 2^k scales each product and sum exactly, so
    S stays, rho scales by 2^k and the ratio stays, bit for bit."""
    g = get_dataset(spark, family, config, "test").local
    r = dcs_greedy(g)
    for k in (-10, 10):
        s = 2.0 ** k
        gs = LocalGraph(g.ids, [{j: w * s for j, w in a.items()}
                                for a in g.adj])
        rs = dcs_greedy(gs)
        assert rs.S == r.S
        assert (rs.rho / s).hex() == r.rho.hex()
        assert rs.ratio.hex() == r.ratio.hex()


def test_max_edge_candidate_wins_when_isolated_heavy_pair():
    triples = [(0, 1, 100.0)]
    triples += [(2 + i, 2 + j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    g = graph_from_triples(triples)
    r = dcs_greedy(g)
    assert r.S == [0, 1]
    assert r.rho == pytest.approx(100.0)


def test_connected_refinement():
    """A disconnected winner must be refined to one component (Property 1)."""
    triples = [(0, 1, 3.0), (2, 3, 3.0)]
    g = graph_from_triples(triples)
    r = dcs_greedy(g)
    assert len(r.S) == 2
    assert r.rho == pytest.approx(3.0)
    comps = g.connected_components_of(r.S)
    assert len(comps) == 1


def test_ratio_is_at_least_one():
    g = random_signed_graph(12, 0.5, 3)
    r = dcs_greedy(g)
    if r.rho > 0:
        assert r.ratio >= 1.0 - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_dcsad_lower_bounds_optimum(seed):
    """Algorithm 2 is a heuristic: its rho never exceeds the brute-force
    optimum and always reaches at least the best single edge (its own
    candidate)."""
    g = random_signed_graph(10, 0.5, seed + 20)
    r = dcs_greedy(g)
    _, opt = brute_force_densest(g)
    assert r.rho <= opt + 1e-9
    best_edge = max(
        (w for i in range(g.n) for j, w in g.adj[i].items()), default=0.0
    )
    if best_edge > 0:
        assert r.rho >= best_edge - 1e-9  # pair has rho = w


@pytest.mark.parametrize("seed", range(6))
def test_data_dependent_ratio_bound(seed):
    """Theorem 2: opt <= 2 * rho_{D+}(S2), so ratio * rho(S) >= opt."""
    g = random_signed_graph(10, 0.5, seed + 50)
    r = dcs_greedy(g)
    if r.rho <= 0:
        pytest.skip("degenerate")
    _, opt = brute_force_densest(g)
    assert r.ratio * r.rho >= opt - 1e-9


def test_greedy_only_variants():
    g = fig1_difference_graph()
    candidates = dcs_greedy(g).candidates
    s_gd, rho_gd = candidates["greedy_gd"]
    s_gp, rho_gp = candidates["greedy_gdplus"]
    assert rho_gd == pytest.approx(avg_degree(g, s_gd))
    assert rho_gp == pytest.approx(avg_degree(g, s_gp))
    # Greedy on G_D+ ignores the negative edges; evaluated in G_D its
    # density can only be <= its density in G_D+.
    gp = g.positive_part()
    assert avg_degree(g, s_gp) <= avg_degree(gp, s_gp) + 1e-9


def test_result_reported_in_external_ids():
    pdf = pd.DataFrame(
        {"src": [100, 100], "dst": [200, 300], "weight": [5.0, -1.0]}
    )
    g = from_edge_pandas(pdf)
    r = dcs_greedy(g)
    assert g.to_ids(r.S) == [100, 200]
