"""SEACD (Algorithm 3): global KKT at termination, quality on known graphs."""
import pytest

from repro.core.cd import local_kkt, objective
from repro.core.seacd import seacd, shrink_and_expand

from tests.helpers import (
    all_cliques_max_affinity_unweighted,
    graph_from_triples,
    random_positive_graph,
)


def test_isolated_start_stays_put():
    g = graph_from_triples([(1, 2, 1.0)], n=4)
    x, p, stats = seacd(g, start_vertex=3)
    assert x == {3: 1.0}
    assert objective(x, p) == 0.0


def test_single_edge_optimum():
    g = graph_from_triples([(0, 1, 6.0)])
    x, p, _ = seacd(g, start_vertex=0)
    assert objective(x, p) == pytest.approx(3.0, rel=1e-3)
    assert x[0] == pytest.approx(0.5, abs=0.01)


def test_uniform_clique_optimum():
    k, w = 5, 2.0
    triples = [(i, j, w) for i in range(k) for j in range(i + 1, k)]
    g = graph_from_triples(triples)
    x, p, _ = seacd(g, start_vertex=0)
    assert objective(x, p) == pytest.approx(w * (k - 1) / k, rel=1e-3)


def test_no_expansion_errors():
    g = random_positive_graph(15, 0.4, 2)
    total_err = 0
    for u in range(g.n):
        if g.adj[u]:
            _, _, stats = seacd(g, start_vertex=u)
            total_err += stats.expansion_errors
    assert total_err == 0


@pytest.mark.parametrize("seed", range(6))
def test_global_kkt_at_termination(seed):
    """Eq. 8 holds over all of V at termination (within tolerances)."""
    g = random_positive_graph(12, 0.4, seed + 5)
    if g.m < 4:
        pytest.skip("sparse sample")
    u = next(v for v in range(g.n) if g.adj[v])
    x, p, _ = seacd(g, start_vertex=u)
    f = objective(x, p)
    support = [k for k, v in x.items() if v > 0]
    tol = 1e-2 / max(1, len(support)) + 1e-6
    mn = min(p.get(k, 0.0) for k in support)
    mx = max(p.get(k, 0.0) for k in range(g.n) if x.get(k, 0.0) < 1.0)
    assert 2.0 * (mx - mn) <= 2 * tol + 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_motzkin_straus_on_unweighted(seed):
    """Best-of-all-starts SEACD reaches 1 - 1/omega on 0/1 graphs."""
    g = random_positive_graph(9, 0.5, seed + 40)
    for a in g.adj:  # make unweighted
        for k in a:
            a[k] = 1.0
    if g.m < 3:
        pytest.skip("sparse sample")
    opt, _ = all_cliques_max_affinity_unweighted(g)
    best = 0.0
    for u in range(g.n):
        if g.adj[u]:
            x, p, _ = seacd(g, start_vertex=u)
            best = max(best, objective(x, p))
    assert best == pytest.approx(opt, abs=0.02)


def test_x0_dict_start():
    g = graph_from_triples([(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)])
    x, p, _ = shrink_and_expand(
        g, {0: 0.5, 1: 0.5}, lambda x, p: local_kkt(g, x, p, list(x)))
    assert objective(x, p) == pytest.approx(2.0 * 2 / 3, rel=1e-3)
