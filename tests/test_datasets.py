"""Dataset registry: configs, caching, universe padding, Table II sanity."""
import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.datasets import CONFIGS, DCSDataset, all_configs, get_dataset
from repro.graphgen import coauthor


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


def test_local_graph_padded_to_n(spark):
    ds = get_dataset(spark, "dblp", "weighted-emerging", "test")
    assert ds.local.n == ds.n


def test_local_ids_are_endpoints_then_missing_ids(spark):
    """Padding appends the isolated ids, so endpoint indices do not move."""
    ds = get_dataset(spark, "dblp", "discrete-emerging", "test")
    ends = sorted({v for r in ds.edges.collect() for v in (r.src, r.dst)})
    missing = sorted(set(range(ds.n)) - set(ends))
    assert missing  # the dataset has isolated vertices to pad
    assert ds.local.ids == ends + missing


def test_generator_runs_once_per_family(spark, monkeypatch):
    calls = []
    events = coauthor.events
    monkeypatch.setattr(coauthor, "events",
                        lambda *a, **k: calls.append(1) or events(*a, **k))
    monkeypatch.setattr(datasets, "_CACHE", {})
    for cfg in CONFIGS["dblp"]:
        get_dataset(spark, "dblp", cfg, "test")
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
