"""DBLP-C and Actor generators: per-era paper counts, planted structures."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.difference import cap_weights, difference
from repro.graphgen import bigco, coauthor

from tests.helpers import dblpc_events_reference


@pytest.fixture(scope="module")
def dblpc(spark):
    g1, g2 = coauthor.era_graphs(spark, bigco.dblpc_events(300, 500))
    return g1.cache(), g2.cache()


@pytest.mark.parametrize("n,bg_pairs,seed", [
    (200, 300, 19), (300, 500, 19), (900, 2000, 19), (300, 500, 5),
])
def test_dblpc_events_match_per_paper_reference(n, bg_pairs, seed):
    """Counting each era's papers per pair gives the counts of a loop that
    draws each paper's time on its own, from the same random numbers."""
    ev = bigco.dblpc_events(n, bg_pairs, seed=seed)
    got = ev.sort_values(["src", "dst", "era"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, dblpc_events_reference(n, bg_pairs, seed=seed))


def test_dblpc_heavy_pair(spark, dblpc):
    g1, g2 = dblpc
    gd = difference(g1, g2)
    row = gd.where((F.col("src") == 0) & (F.col("dst") == 1)).collect()
    assert row[0]["weight"] == 400.0


def test_dblpc_negative_pair(spark, dblpc):
    g1, g2 = dblpc
    gd = difference(g1, g2)
    row = gd.where((F.col("src") == 2) & (F.col("dst") == 3)).collect()
    assert row[0]["weight"] == -186.0


def test_dblpc_disc_clique(spark, dblpc):
    g1, g2 = dblpc
    gd = difference(g1, g2)
    ids = bigco.DBLPC_PLANTED["disc-clique"]
    rows = gd.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).collect()
    assert len(rows) == len(ids) * (len(ids) - 1) // 2
    assert all(r["weight"] == 6.0 for r in rows)


def test_actor_all_positive(spark):
    gd = bigco.actor_graph(spark, 300, 1500)
    assert gd.where(F.col("weight") <= 0).count() == 0


def test_actor_heavy_triangle(spark):
    gd = bigco.actor_graph(spark, 300, 1500)
    rows = {
        (r["src"], r["dst"]): r["weight"]
        for r in gd.where(F.col("src") < 3).where(F.col("dst") < 3).collect()
    }
    assert rows[(0, 1)] == 216.0
    assert rows[(0, 2)] == 112.0 and rows[(1, 2)] == 112.0


def test_actor_cap(spark):
    gd = cap_weights(bigco.actor_graph(spark, 300, 1500))
    assert gd.agg(F.max("weight")).collect()[0][0] == 10.0
    ids = bigco.ACTOR_PLANTED["disc-clique"]
    rows = gd.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).collect()
    assert all(r["weight"] == 10.0 for r in rows)


def test_actor_mean_weight_near_paper(spark):
    gd = bigco.actor_graph(spark, 2000, 12000)
    bg = gd.where((F.col("src") >= 40) & (F.col("dst") >= 40))
    avg = bg.agg(F.avg("weight")).collect()[0][0]
    assert avg == pytest.approx(1.1, abs=0.1)  # Table II: 1.101
