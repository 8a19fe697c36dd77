"""NewSEA (Algorithm 5): bound validity, pruning never loses quality."""
import itertools

import pytest

from repro.core.kbounds import smart_init_bounds_local
from repro.core.metrics import affinity, uniform_embedding
from repro.core.newsea import (
    dedup_cliques,
    newsea,
    sea_refine_full,
    seacd_refine_full,
)

from tests.helpers import graph_from_triples, random_positive_graph


@pytest.mark.parametrize("seed", range(6))
def test_mu_upper_bounds_clique_affinity(seed):
    """Theorem 6 + core bound: for every clique K containing u and the
    uniform (or any) embedding on K, f <= mu_u. Checked by brute force
    over all cliques on small graphs (optimal embedding on a clique is
    bounded by max-edge * (k-1)/k <= w_u * (k-1)/k <= mu-ish); we verify
    the uniform embedding which is the Theorem 6 quantity."""
    g = random_positive_graph(9, 0.5, seed + 11)
    if g.m < 3:
        pytest.skip("sparse sample")
    mu = smart_init_bounds_local(g)
    verts = [v for v in range(g.n) if g.adj[v]]
    for r in range(2, 6):
        for K in itertools.combinations(verts, r):
            if not all(
                g.adj[a].get(b, 0.0) > 0
                for a, b in itertools.combinations(K, 2)
            ):
                continue
            f = affinity(g, uniform_embedding(K))
            for u in K:
                assert f <= mu[u] + 1e-9


def test_newsea_matches_full_init_quality():
    for seed in range(5):
        g = random_positive_graph(12, 0.4, seed + 30)
        if g.m < 3:
            continue
        r_new = newsea(g)
        r_full = seacd_refine_full(g)
        assert r_new.f >= r_full.f - 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_newsea_returns_tight_kkt_point(seed):
    """The polished NewSEA embedding is a KKT point on its support to far
    below the paper's 1e-2/|S| gap, and no worse than full-init."""
    g = random_positive_graph(14, 0.45, seed + 50, w_hi=20.0)
    scale = max(w for a in g.adj for w in a.values())
    r = newsea(g)
    p = [sum(w * r.x.get(v, 0.0) for v, w in g.adj[u].items()) for u in r.x]
    assert 2.0 * (max(p) - min(p)) <= 1e-9 * scale
    assert r.f == pytest.approx(affinity(g, r.x), rel=1e-12)
    full = seacd_refine_full(g)
    assert r.f >= full.f - 1e-12 * full.f


def test_newsea_runs_fewer_inits_on_skewed_graph():
    """One dominant edge: the smart bound prunes almost every start."""
    triples = [(0, 1, 50.0)]
    triples += [(2 + i, 2 + i + 1, 1.0) for i in range(30)]
    g = graph_from_triples(triples)
    r = newsea(g)
    assert r.f == pytest.approx(25.0, rel=1e-3)
    assert r.inits <= 3
    full = seacd_refine_full(g)
    assert full.inits >= 30


def test_newsea_empty_graph():
    g = graph_from_triples([(0, 1, 1.0)], n=2)
    g.adj = [dict(), dict()]  # no edges at all
    r = newsea(g)
    assert r.f == 0.0


def test_sea_refine_full_reports_cliques():
    g = graph_from_triples([(0, 1, 4.0), (2, 3, 2.0)])
    r = sea_refine_full(g)
    supports = {k for k, _, _ in r.cliques}
    assert frozenset({0, 1}) in supports
    assert frozenset({2, 3}) in supports
    assert r.f == pytest.approx(2.0, rel=1e-3)


def test_dedup_cliques_removes_subsets():
    cl = [
        (frozenset({0, 1, 2}), 3.0, {0: 0.3, 1: 0.3, 2: 0.4}),
        (frozenset({0, 1}), 2.0, {0: 0.5, 1: 0.5}),
        (frozenset({3, 4}), 1.0, {3: 0.5, 4: 0.5}),
        (frozenset({0, 1, 2}), 2.5, {0: 0.4, 1: 0.3, 2: 0.3}),
    ]
    out = dedup_cliques(cl)
    keys = [k for k, _, _ in out]
    assert keys == [frozenset({0, 1, 2}), frozenset({3, 4})]


def test_dedup_cliques_subset_with_higher_f_dropped():
    cl = [
        (frozenset({0, 1}), 5.0, {}),
        (frozenset({0, 1, 2}), 3.0, {}),
    ]
    out = dedup_cliques(cl)
    assert [k for k, _, _ in out] == [frozenset({0, 1, 2})]
