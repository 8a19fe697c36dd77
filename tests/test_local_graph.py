"""Unit tests for the LocalGraph driver representation."""
import pandas as pd
import pytest

from repro.graph.local import from_edge_pandas

from tests.helpers import graph_from_triples


@pytest.fixture
def tri():
    return graph_from_triples([(0, 1, 2.0), (1, 2, -1.0), (0, 2, 3.0)])


def test_n_and_m(tri):
    assert tri.n == 3
    assert tri.m == 3


def test_weight_lookup(tri):
    assert tri.weight(0, 1) == 2.0
    assert tri.weight(1, 0) == 2.0
    assert tri.weight(1, 2) == -1.0
    assert tri.weight(0, 0) == 0.0


def test_positive_part(tri):
    gp = tri.positive_part()
    assert gp.m == 2
    assert gp.weight(1, 2) == 0.0
    assert gp.weight(0, 2) == 3.0


def test_positive_part_preserves_ids(tri):
    gp = tri.positive_part()
    assert gp.ids == tri.ids
    assert gp.n == tri.n


def test_subgraph_weight(tri):
    assert tri.subgraph_weight([0, 1, 2]) == 4.0
    assert tri.subgraph_weight([0, 1]) == 2.0
    assert tri.subgraph_weight([0]) == 0.0


def test_to_ids_roundtrip():
    pdf = pd.DataFrame({"src": [10, 30], "dst": [30, 50], "weight": [1.0, 2.0]})
    g = from_edge_pandas(pdf)
    assert g.ids == [10, 30, 50]
    assert g.to_ids([0, 2]) == [10, 50]


def test_zero_weight_edges_dropped():
    g = graph_from_triples([(0, 1, 0.0), (1, 2, 1.0)], n=3)
    assert g.m == 1


def test_self_loops_dropped():
    pdf = pd.DataFrame({"src": [1, 1], "dst": [1, 2], "weight": [5.0, 1.0]})
    g = from_edge_pandas(pdf)
    assert g.m == 1


def test_duplicate_edges_summed():
    pdf = pd.DataFrame({"src": [0, 0], "dst": [1, 1], "weight": [1.0, 2.5]})
    g = from_edge_pandas(pdf)
    assert g.weight(0, 1) == 3.5


def test_isolated_vertices_padded():
    g = graph_from_triples([(0, 1, 1.0)], n=5)
    assert g.n == 5
    assert g.adj[4] == {}


def test_connected_components_of():
    g = graph_from_triples([(0, 1, 1.0), (2, 3, -1.0), (3, 4, 2.0)], n=6)
    comps = {frozenset(c) for c in g.connected_components_of([0, 1, 2, 3, 4, 5])}
    assert frozenset({0, 1}) in comps
    assert frozenset({2, 3, 4}) in comps
    assert frozenset({5}) in comps


def test_connected_components_respects_subset():
    g = graph_from_triples([(0, 1, 1.0), (1, 2, 1.0)], n=3)
    comps = {frozenset(c) for c in g.connected_components_of([0, 2])}
    assert comps == {frozenset({0}), frozenset({2})}
