"""SEA Expansion operation: candidates, simplex invariant, improvement."""
import pytest

from repro.core.cd import init_state, local_kkt, objective
from repro.core.expansion import expand, expansion_candidates

from tests.helpers import graph_from_triples, random_positive_graph


def test_candidates_on_star():
    g = graph_from_triples([(0, 1, 2.0), (0, 2, 3.0)])
    x, p = init_state(g, {0: 1.0})
    # f = 0; both neighbors have (Dx) > 0.
    assert set(expansion_candidates(x, p, objective(x, p))) == {1, 2}


def test_candidates_exclude_support():
    g = graph_from_triples([(0, 1, 2.0)])
    x, p = init_state(g, {0: 0.5, 1: 0.5})
    assert expansion_candidates(x, p, objective(x, p)) == []


def test_expand_preserves_simplex():
    g = graph_from_triples([(0, 1, 4.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, 3.0)])
    x, p = init_state(g, {0: 0.5, 1: 0.5})
    Z = expansion_candidates(x, p, level=objective(x, p))
    if Z:
        expand(g, x, p, Z, level=objective(x, p))
    assert sum(x.values()) == pytest.approx(1.0)
    assert all(v >= -1e-12 for v in x.values())


@pytest.mark.parametrize("seed", range(8))
def test_expand_from_exact_kkt_never_decreases(seed):
    """From an *exact* local KKT point, expansion cannot reduce f —
    the property whose violation (under loose convergence) the paper
    counts as SEA errors."""
    g = random_positive_graph(9, 0.5, seed)
    S = list(range(g.n // 2 + 1))
    # An outside vertex joined to all of S with weight 2*max_w has
    # (Dx) = 2*max_w > f(x) for every x on S, so Z is never empty.
    triples = [
        (i, j, w) for i in range(g.n) for j, w in g.adj[i].items() if i < j
    ]
    max_w = max((w for _, _, w in triples), default=1.0)
    g = graph_from_triples(triples + [(i, g.n, 2.0 * max_w) for i in S],
                           n=g.n + 1)
    # Local KKT on a half-size support, tight tolerance.
    x, p = init_state(g, {i: 1.0 / len(S) for i in S})
    local_kkt(g, x, p, S, tol=1e-12)
    f0 = objective(x, p)
    Z = expansion_candidates(x, p, level=f0)
    assert g.n - 1 in Z
    expand(g, x, p, Z, level=f0)
    assert objective(x, p) >= f0 - 1e-8


def test_expand_is_noop_when_no_gain():
    g = graph_from_triples([(0, 1, 2.0), (1, 2, 1.0)])
    x, p = init_state(g, {0: 0.5, 1: 0.5})
    before = (dict(x), dict(p))
    expand(g, x, p, [2], level=5.0)  # gamma_2 = 0.5 - 5 < 0
    assert (x, p) == before


def test_expand_grows_support():
    g = graph_from_triples([(0, 1, 1.0), (0, 2, 5.0), (1, 2, 5.0)])
    x, p = init_state(g, {0: 0.5, 1: 0.5})
    Z = expansion_candidates(x, p, level=objective(x, p))
    assert Z == [2]
    expand(g, x, p, Z, level=objective(x, p))
    assert x.get(2, 0.0) > 0.0
