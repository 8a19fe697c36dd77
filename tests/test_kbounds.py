"""Smart-initialization bounds: core numbers and ego-net weights vs. their
definitions, and the mu_u formula."""
import pandas as pd
import pytest

from repro.core.kbounds import (
    core_numbers_exact,
    egonet_max_weight_local,
    smart_init_bounds_local,
)
from repro.graph.local import from_edge_pandas

from tests.helpers import (
    brute_force_core_numbers,
    brute_force_egonet_max_weight,
    graph_from_triples,
    random_signed_graph,
)


@pytest.mark.parametrize("seed", range(3))
def test_core_numbers_match_brute_force(seed):
    g = random_signed_graph(40, 0.12, seed + 300)
    assert g.m > 0
    assert core_numbers_exact(g) == brute_force_core_numbers(g)


def test_core_numbers_clique_plus_tail():
    rows = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
    rows += [(4, 5, 1.0), (5, 6, 1.0)]
    core = core_numbers_exact(graph_from_triples(rows))
    assert all(core[i] == 4 for i in range(5))
    assert core[5] == 1 and core[6] == 1


@pytest.mark.parametrize("seed", range(3))
def test_egonet_max_weight_matches_brute_force(seed):
    g = random_signed_graph(25, 0.15, seed + 400, w_lo=0.5, w_hi=9.0)
    assert g.m > 0
    assert egonet_max_weight_local(g) == brute_force_egonet_max_weight(g)


def test_egonet_bound_is_two_hop_max():
    # Star 0-1, 1-2(heavy): w_u of 0 must see the heavy edge at hop 2.
    g = graph_from_triples([(0, 1, 1.0), (1, 2, 7.0)])
    w = egonet_max_weight_local(g)
    assert {g.ids[i]: v for i, v in w.items()} == {0: 7.0, 1: 7.0, 2: 7.0}


@pytest.mark.parametrize("seed", range(3))
def test_bounds_match_brute_force(seed):
    g = random_signed_graph(30, 0.15, seed + 600, w_lo=0.5, w_hi=8.0)
    tau = brute_force_core_numbers(g)
    w = brute_force_egonet_max_weight(g)
    mu = smart_init_bounds_local(g)
    assert set(mu) == set(tau)
    for u in mu:
        assert mu[u] == pytest.approx(tau[u] * w[u] / (tau[u] + 1.0))


def test_bounds_formula():
    # Triangle of weight 6: tau=2, w_u=6 -> mu = 2*6/3 = 4.
    pdf = pd.DataFrame(
        {"src": [0, 0, 1], "dst": [1, 2, 2], "weight": [6.0, 6.0, 6.0]}
    )
    gl = from_edge_pandas(pdf)
    mu = smart_init_bounds_local(gl)
    assert all(v == pytest.approx(4.0) for v in mu.values())
