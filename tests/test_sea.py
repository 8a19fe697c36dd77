"""Original SEA baseline: replicator invariants and loose-convergence errors."""
import pytest

from repro.core.cd import init_state, objective
from repro.core.sea import replicator_shrink, sea

from tests.helpers import graph_from_triples, random_positive_graph


def test_replicator_preserves_simplex():
    g = graph_from_triples([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)])
    x, p = init_state(g, {0: 0.4, 1: 0.4, 2: 0.2})
    replicator_shrink(g, x, p)
    assert sum(x.values()) == pytest.approx(1.0)
    assert all(v > 0 for v in x.values())


def test_replicator_monotone_objective():
    g = random_positive_graph(8, 0.6, 1)
    x, p = init_state(g, {i: 1.0 / g.n for i in range(g.n)})
    f0 = objective(x, p)
    replicator_shrink(g, x, p, eps=1e-12, max_iter=500)
    assert objective(x, p) >= f0 - 1e-9


def test_replicator_zero_objective_noop():
    g = graph_from_triples([(1, 2, 1.0)], n=3)
    x, p = init_state(g, {0: 1.0})
    it = replicator_shrink(g, x, p)
    assert it == 0
    assert x == {0: 1.0}


def test_sea_single_edge():
    g = graph_from_triples([(0, 1, 4.0)])
    x, p, _ = sea(g, 0)
    assert objective(x, p) == pytest.approx(2.0, rel=1e-3)


def test_sea_uniform_clique():
    k, w = 4, 3.0
    g = graph_from_triples(
        [(i, j, w) for i in range(k) for j in range(i + 1, k)]
    )
    x, p, _ = sea(g, 0)
    assert objective(x, p) == pytest.approx(w * (k - 1) / k, rel=1e-2)


def test_loose_convergence_can_err():
    """With the paper's |Δf|<=1e-6 test the replicator may stop short of a
    local KKT point and the following Expansion can decrease f — the
    Table VII phenomenon. SEACD on the same graphs and starts never errs
    (the paper's claim for the coordinate-descent algorithms)."""
    from repro.core.seacd import seacd

    errs_loose = 0
    errs_seacd = 0
    for seed in range(12):
        g = random_positive_graph(25, 0.7, seed + 200, w_hi=3.0)
        for u in range(0, g.n, 5):
            if not g.adj[u]:
                continue
            _, _, st = sea(g, u)
            errs_loose += st.expansion_errors
            _, _, st2 = seacd(g, start_vertex=u)
            errs_seacd += st2.expansion_errors
    assert errs_seacd == 0
    # loose convergence is *expected* to err somewhere across 60 runs;
    # if it never does, the reproduction of Table VII's error column is
    # vacuous, so surface that.
    assert errs_loose >= 1
