"""Dataset registry: configs, caching, driver graphs, Table II sanity."""
import functools

import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.datasets import CONFIGS, DCSDataset, all_configs, get_dataset
from repro.graphgen import bigco, coauthor


def test_all_configs_count():
    assert len(all_configs()) == 16  # the 16 rows of Table II


def test_config_families():
    assert set(CONFIGS) == {
        "dblp", "dm", "wiki", "movie", "book", "dblpc", "actor"
    }


def test_cache_returns_same_object(spark):
    a = get_dataset(spark, "dblp", "weighted-emerging", "test")
    b = get_dataset(spark, "dblp", "weighted-emerging", "test")
    assert a is b


@pytest.mark.parametrize("family,module,name", [
    ("dblp", coauthor, "events"),
    ("dblpc", bigco, "dblpc_events"),
], ids=["dblp", "dblpc"])
def test_generator_runs_once_per_family(spark, monkeypatch, family, module,
                                        name):
    calls = []
    events = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(1) or events(*a, **k))
    # Fresh memos for this test only; cache_clear() would make later tests
    # rebuild their datasets.
    for fn in ("_base", "get_dataset"):
        monkeypatch.setattr(datasets, fn, functools.cache(
            getattr(datasets, fn).__wrapped__))
    for cfg in CONFIGS[family]:
        datasets.get_dataset(spark, family, cfg, "test")
    assert len(calls) == 1


def test_flip_pairs_are_mirrors(spark):
    em = get_dataset(spark, "dblp", "weighted-emerging", "test")
    dis = get_dataset(spark, "dblp", "weighted-disappearing", "test")
    s1 = em.edges.agg(F.sum("weight")).collect()[0][0]
    s2 = dis.edges.agg(F.sum("weight")).collect()[0][0]
    assert s1 == pytest.approx(-s2)


def test_discrete_weights_in_range(spark):
    ds = get_dataset(spark, "dblp", "discrete-emerging", "test")
    vals = {r["weight"] for r in ds.edges.select("weight").distinct().collect()}
    assert vals <= {-2.0, -1.0, 1.0, 2.0}


def test_actor_has_no_negative_edges(spark):
    ds = get_dataset(spark, "actor", "weighted", "test")
    assert ds.edges.where(F.col("weight") <= 0).count() == 0


def test_planted_indices_resolve(spark):
    ds = get_dataset(spark, "dblp", "weighted-emerging", "test")
    planted = ds.planted["uta-ml"]
    assert len(planted) == 4
    assert set(planted) <= set(ds.local.ids)


def test_dm_vertices_are_words(spark):
    ds = get_dataset(spark, "dm", "emerging", "test")
    assert isinstance(ds.local.ids[0], str)


def test_dataset_dataclass_fields(spark):
    ds = get_dataset(spark, "wiki", "consistent", "test")
    assert isinstance(ds, DCSDataset)
    assert ds.family == "wiki" and ds.config == "consistent"
    assert ds.scale == "test"


@pytest.mark.parametrize("graph", [
    lambda spark: get_dataset(spark, "dblp", "weighted-emerging", "test"),
    lambda spark: datasets.dm_single_graphs(spark, "test")[0],
], ids=["dblp", "dm-G1"])
def test_local_independent_of_row_order(spark, graph):
    """A reshuffled copy of the edges collects the same driver graph, with
    every adjacency in ascending index order."""
    ds = graph(spark)
    shuffled = DCSDataset(ds.family, ds.config, ds.scale,
                          ds.edges.repartition(7), ds.n)
    a, b = ds.local, shuffled.local
    assert b.ids == a.ids
    assert [list(r.items()) for r in b.adj] == [list(r.items()) for r in a.adj]
    assert all(list(r) == sorted(r) for r in a.adj)


_CANONICAL = all_configs() + [("dm-single", "G1"), ("dm-single", "G2")]
_ALL_GRAPHS = pytest.mark.parametrize(
    "family,config", _CANONICAL, ids=[f"{f}-{c}" for f, c in _CANONICAL])


def _graph(spark, family, config):
    if family == "dm-single":
        return datasets.dm_single_graphs(spark, "test")[config == "G2"]
    return get_dataset(spark, family, config, "test")


@_ALL_GRAPHS
def test_edges_canonical(spark, family, config):
    """Every dataset's edges: src < dst, one row per pair, no zero weight;
    its driver graph's vertices are the sorted endpoints.

    Actor's G_D and the DM keyword graphs are used as generated, so this
    is the only check of the invariant for them."""
    ds = _graph(spark, family, config)
    pdf = ds.edges.toPandas()
    assert len(pdf) > 0
    assert (pdf["src"] < pdf["dst"]).all()
    assert not pdf.duplicated(["src", "dst"]).any()
    assert (pdf["weight"] != 0.0).all()
    assert ds.local.ids == sorted(set(pdf["src"]).union(pdf["dst"]))


@_ALL_GRAPHS
def test_local_edges_equal_spark_rows(spark, family, config):
    """The driver graph's unordered edges (ids[i], ids[j], w), i < j, are
    the Spark frame's rows, weights bit for bit (Table II reads them)."""
    ds = _graph(spark, family, config)
    g = ds.local
    local = sorted((g.ids[i], g.ids[j], float(w).hex())
                   for i, a in enumerate(g.adj) for j, w in a.items() if i < j)
    rows = sorted((r.src, r.dst, float(r.weight).hex())
                  for r in ds.edges.collect())
    assert local == rows
