"""DCSGreedy (Algorithm 2): hand cases including the paper's Fig. 1 graph."""
import pandas as pd
import pytest

from repro.core.dcsad import dcs_greedy
from repro.core.metrics import avg_degree
from repro.graph.local import from_edge_pandas

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
