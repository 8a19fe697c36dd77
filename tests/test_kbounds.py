"""Smart-initialization bounds: core numbers and ego-net weights vs. their
definitions, the mu_u formula, and NewSEA's bound min(mu_u, m_u) against
every interior KKT point of every positive clique."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.core.kbounds import (
    core_numbers_exact,
    egonet_max_weight_local,
    max_incident_weight,
    smart_init_bounds_local,
)
from repro.graph.local import from_edge_pandas

from tests.helpers import (
    brute_force_core_numbers,
    brute_force_egonet_max_weight,
    graph_from_triples,
    random_positive_graph,
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


def test_max_incident_weight():
    g = graph_from_triples([(0, 1, 1.0), (1, 2, 7.0), (3, 4, 2.5)], n=6)
    m = max_incident_weight(g)
    assert {g.ids[i]: v for i, v in m.items()} == {
        0: 1.0, 1: 7.0, 2: 7.0, 3: 2.5, 4: 2.5}


def _interior_kkt_points(g):
    """(T, f_T) for every clique T, |T| >= 2, whose D_T^-1 1 is positive.

    x = D_T^-1 1 / (1' D_T^-1 1) is then a KKT point on T with every
    (D x)_u equal to f_T = 1 / (1' D_T^-1 1).
    """
    verts = [v for v in range(g.n) if g.adj[v]]
    for r in range(2, len(verts) + 1):
        for T in itertools.combinations(verts, r):
            if not all(b in g.adj[a] for a, b in itertools.combinations(T, 2)):
                continue
            D = np.array([[g.adj[a].get(b, 0.0) for b in T] for a in T])
            try:
                y = np.linalg.solve(D, np.ones(len(T)))
            except np.linalg.LinAlgError:
                continue
            if (y > 0).all():
                yield T, 1.0 / y.sum()


def test_newsea_bound_caps_every_interior_kkt_point():
    """f_T <= min(mu_u, m_u) for each u in T: at a KKT point holding u,
    f = (Dx)_u <= m_u (1 - x_u) <= m_u, and mu_u is Theorem 6's bound."""
    points = 0
    for seed in range(24):
        g = random_positive_graph(10, 0.55, seed + 700, w_hi=9.0)
        m = max_incident_weight(g)
        mu = smart_init_bounds_local(g, m)
        assert mu == smart_init_bounds_local(g)
        for T, f in _interior_kkt_points(g):
            points += 1
            for u in T:
                assert f <= min(mu[u], m[u]) + 1e-9 * max(m.values())
    assert points >= 500
