"""The two gradient stores of ``core.cd``: selection, bit-identical results.

The dict store and the dense store (:class:`repro.core.cd.DenseGradient`)
must give the same outputs bit for bit, including dict orders. Each test
forces a store on a fresh ``LocalGraph`` (:func:`tests.helpers.with_store`).
"""
import random

import numpy as np
import pytest

from repro.core.cd import DenseGradient, init_state, local_kkt, objective
from repro.core.expansion import expand, expansion_candidates
from repro.datasets import all_configs, get_dataset
from repro.graph import local

from tests.helpers import random_positive_graph, with_store


def _outputs(res) -> tuple:
    """Everything a DCSGAResult reports, with dict orders and exact floats."""
    return (list(res.x.items()), res.f, res.inits, res.expansion_errors,
            [(sorted(k), f, list(x.items())) for k, f, x in res.cliques])


def _p_items(p) -> list:
    """The non-zero entries of p, by index."""
    if isinstance(p, dict):
        return sorted((i, v) for i, v in p.items() if v != 0.0)
    return [(i, p.get(i)) for i in np.flatnonzero(p.vals).tolist()]


@pytest.mark.parametrize(
    "family,config", all_configs(), ids=[f"{f}-{c}" for f, c in all_configs()]
)
def test_stores_give_identical_solver_outputs(dcsga_runs, family, config):
    out = {dense: [_outputs(res) for res in dcsga_runs(family, config, dense)]
           for dense in (False, True)}
    assert out[True] == out[False]


@pytest.mark.parametrize("seed", range(3))
def test_stores_match_after_every_kkt_and_expand(seed):
    """SEACD's loop in lockstep on both stores, (x, p) compared each step."""
    rng = random.Random(seed)
    g0 = random_positive_graph(60, 0.7, seed + 100)
    # Shuffled adjacency orders, so the dict's key order is not index order.
    g0.adj = [dict(rng.sample(sorted(a.items()), len(a))) for a in g0.adj]
    assert local.wants_dense_rows(g0)
    gs = [with_store(g0, dense) for dense in (False, True)]
    start = rng.randrange(g0.n)
    states = [init_state(g, {start: 1.0}) for g in gs]
    assert isinstance(states[1][1], DenseGradient)
    for _ in range(50):
        for g, (x, p) in zip(gs, states):
            local_kkt(g, x, p, list(x))
        (xd, pd), (xn, pn) = states
        assert list(xd.items()) == list(xn.items())
        assert _p_items(pd) == _p_items(pn)
        level = objective(xd, pd)
        assert objective(xn, pn) == level
        Z = expansion_candidates(xd, pd, level)
        assert Z == sorted(Z)
        assert expansion_candidates(xn, pn, level) == Z
        if not Z:
            break
        for g, (x, p) in zip(gs, states):
            expand(g, x, p, Z, level)
        assert list(xd.items()) == list(xn.items())
        assert _p_items(pd) == _p_items(pn)
    else:
        pytest.fail("SEACD did not stop within 50 rounds")


@pytest.mark.parametrize("family,config,dense", [
    ("dm", "emerging", True),
    ("dm", "disappearing", True),
    ("movie", "interest-social", True),
    ("dblp", "weighted-emerging", False),
    ("dblp", "weighted-disappearing", False),
    ("dblp", "discrete-emerging", False),
    ("dblp", "discrete-disappearing", False),
    ("dblpc", "weighted", False),
    ("dblpc", "discrete", False),
])
def test_store_selection(spark, family, config, dense):
    gdp = get_dataset(spark, family, config, "test").local.positive_part()
    assert (gdp.rows is not None) == dense
    _, p = init_state(gdp, {0: 1.0})
    assert isinstance(p, DenseGradient) == dense
