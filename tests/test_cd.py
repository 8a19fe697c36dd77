"""2-coordinate descent: simplex invariants, monotonicity, KKT conditions."""
import pytest

from repro.core.cd import (
    apply_delta,
    init_state,
    local_kkt,
    objective,
    solve_pair,
)

from tests.helpers import (
    graph_from_triples,
    random_positive_graph,
    with_store,
)


@pytest.fixture
def tri():
    return graph_from_triples([(0, 1, 4.0), (1, 2, 2.0), (0, 2, 2.0)])


def test_init_state_gradient(tri):
    x, p = init_state(tri, {0: 1.0})
    assert x == {0: 1.0}
    assert p[1] == 4.0 and p[2] == 2.0
    assert p.get(0, 0.0) == 0.0


def test_objective_matches_quadratic_form(tri):
    x, p = init_state(tri, {0: 0.5, 1: 0.3, 2: 0.2})
    # x'Dx = 2*(0.5*0.3*4 + 0.3*0.2*2 + 0.5*0.2*2)
    assert objective(x, p) == pytest.approx(2 * (0.6 + 0.12 + 0.2))


def test_apply_delta_maintains_p(tri):
    x, p = init_state(tri, {0: 1.0})
    apply_delta(tri, x, p, 1, 0.5)
    x2, p2 = init_state(tri, {0: 1.0, 1: 0.5})
    for k in range(3):
        assert p.get(k, 0.0) == pytest.approx(p2.get(k, 0.0))


def test_solve_pair_moves_to_better(tri):
    x, p = init_state(tri, {0: 0.5, 2: 0.5})
    f0 = objective(x, p)
    solve_pair(tri, x, p, 1, 2)  # shift mass from 2 toward 1 (heavier edge)
    assert objective(x, p) >= f0 - 1e-12


def _snapshot(p):
    """The stored gradient entries of either store, for equality checks."""
    return dict(p) if isinstance(p, dict) else p.vals.tolist()


@pytest.mark.parametrize("dense", [False, True], ids=["dict", "dense"])
def test_apply_delta_zero_is_noop(tri, dense):
    g = with_store(tri, dense)
    x, p = init_state(g, {0: 1.0})
    before = _snapshot(p)
    apply_delta(g, x, p, 1, 0.0)
    assert x == {0: 1.0}
    assert _snapshot(p) == before


@pytest.mark.parametrize("dense", [False, True], ids=["dict", "dense"])
@pytest.mark.parametrize("w02,w12,delta,x_after", [
    (1.0, 3.0, -0.4, {1: 0.8, 2: 0.2}),  # b_0 < b_1: all mass to 1
    (2.0, 2.0, 0.0, {0: 0.4, 1: 0.4, 2: 0.2}),  # b_0 = b_1: no move
], ids=["bi-below-bj", "bi-equals-bj"])
def test_solve_pair_zero_weight_cases(dense, w02, w12, delta, x_after):
    """Non-adjacent i = 0, j = 1 with b_i = 0.2 w02, b_j = 0.2 w12."""
    g = with_store(graph_from_triples([(0, 2, w02), (1, 2, w12)]), dense)
    x, p = init_state(g, {0: 0.4, 1: 0.4, 2: 0.2})
    assert solve_pair(g, x, p, 0, 1) == delta
    assert x == x_after
    _, p_ref = init_state(g, x_after)
    for k in range(g.n):
        assert p.get(k, 0.0) == pytest.approx(p_ref.get(k, 0.0))


def test_solve_pair_zero_weight_transfers_all():
    g = graph_from_triples([(0, 2, 3.0), (1, 2, 1.0)])  # 0-1 not adjacent
    x, p = init_state(g, {0: 0.4, 1: 0.4, 2: 0.2})
    solve_pair(g, x, p, 0, 1)  # b_0 = 3*0.2 > b_1 = 1*0.2
    assert x.get(1, 0.0) == 0.0
    assert x[0] == pytest.approx(0.8)


def test_simplex_preserved(tri):
    x, p = init_state(tri, {0: 1.0})
    local_kkt(tri, x, p, [0, 1, 2])
    assert sum(x.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in x.values())


def test_local_kkt_singleton_noop(tri):
    x, p = init_state(tri, {0: 1.0})
    iters = local_kkt(tri, x, p, [0])
    assert iters == 0
    assert x == {0: 1.0}


@pytest.mark.parametrize("seed", range(6))
def test_local_kkt_conditions_hold(seed):
    """Eq. 11: max over S of grad <= min over support of grad (+tol)."""
    g = random_positive_graph(10, 0.5, seed)
    if g.m < 3:
        pytest.skip("sparse sample")
    S = list(range(g.n))
    x, p = init_state(g, {i: 1.0 / g.n for i in range(g.n)})
    local_kkt(g, x, p, S)
    tol = 1e-2 / len(S)
    mx = max(p.get(k, 0.0) for k in S if x.get(k, 0.0) < 1.0)
    mn = min(p.get(k, 0.0) for k in S if x.get(k, 0.0) > 0.0)
    assert 2.0 * (mx - mn) <= tol + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_local_kkt_monotone_objective(seed):
    g = random_positive_graph(8, 0.6, seed + 10)
    if g.m < 3:
        pytest.skip("sparse sample")
    x, p = init_state(g, {i: 1.0 / g.n for i in range(g.n)})
    f0 = objective(x, p)
    local_kkt(g, x, p, list(range(g.n)))
    assert objective(x, p) >= f0 - 1e-9


def test_local_kkt_respects_restriction(tri):
    """Vertices outside S must keep x = 0 (Eq. 10)."""
    x, p = init_state(tri, {1: 1.0})
    local_kkt(tri, x, p, [1, 2])
    assert x.get(0, 0.0) == 0.0


def test_lambda_equals_2f_at_kkt(tri):
    """At a KKT point, grad on the support = lambda = 2 f(x) (Eq. 7)."""
    x, p = init_state(tri, {0: 1.0 / 3, 1: 1.0 / 3, 2: 1.0 / 3})
    local_kkt(tri, x, p, [0, 1, 2], tol=1e-10)
    f = objective(x, p)
    for u, xu in x.items():
        if xu > 1e-9:
            assert 2 * p[u] == pytest.approx(2 * f, abs=1e-6)
