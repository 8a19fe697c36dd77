"""DBLP-style co-author generator: planted weights and Spark aggregation."""
import pytest
from pyspark.sql import functions as F

from repro.graph.difference import difference
from repro.graphgen import coauthor

from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def ev():
    return coauthor.events(300, 600)


@pytest.fixture(scope="module")
def graphs(spark, ev):
    g1, g2 = coauthor.era_graphs(spark, ev)
    return g1.cache(), g2.cache()


def test_events_deterministic():
    a = coauthor.events(300, 600)
    b = coauthor.events(300, 600)
    assert a.equals(b)


def test_events_positive_counts(ev):
    assert (ev["papers"] > 0).all()


def test_planted_ids_disjoint_from_background(ev):
    planted = {i for ids in coauthor.PLANTED.values() for i in ids}
    bg = ev[(ev["src"] >= 48) & (ev["dst"] >= 48)]
    assert not planted.intersection(bg["src"]).union(
        planted.intersection(bg["dst"])
    )


def test_era_graphs_oracle(spark, ev, graphs):
    g1, _ = graphs
    assert_equivalent(
        g1,
        """
        SELECT src, dst, CAST(sum(papers) AS DOUBLE) AS weight
        FROM ev WHERE era = 1 GROUP BY src, dst
        """,
        ev=ev,
    )


def test_uta_ml_difference_weights(spark, graphs):
    g1, g2 = graphs
    gd = difference(g1, g2)
    uta = coauthor.PLANTED["uta-ml"]
    rows = gd.where(
        F.col("src").isin(uta) & F.col("dst").isin(uta)
    ).collect()
    weights = sorted(r["weight"] for r in rows)
    assert weights == [22.0, 23.0, 24.0, 24.0, 24.0, 46.0]
    assert sum(weights) == 163.0  # -> avg-degree diff 2*163/4 = 81.5


def test_robotics2_pair_weight(spark, graphs):
    g1, g2 = graphs
    gd = difference(g1, g2)
    a, b = coauthor.PLANTED["japan-robotics-2"]
    row = gd.where((F.col("src") == a) & (F.col("dst") == b)).collect()
    assert row[0]["weight"] == -100.0  # emerging view: era-1 group


def test_robotics1_sum(spark, graphs):
    g1, g2 = graphs
    gd = difference(g2, g1)  # disappearing view: G1 - G2
    ids = coauthor.PLANTED["japan-robotics-1"]
    rows = gd.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).collect()
    assert sum(r["weight"] for r in rows) == 429.0  # -> rho = 143.0


def test_labels_cover_all(ev):
    lab = coauthor.labels(300)
    assert len(lab) == 300
    assert lab[0].startswith("uta-ml")
    assert lab[299].startswith("author-")


def test_background_diffs_bounded(spark, graphs):
    """Background diffs must stay far below the planted weights."""
    g1, g2 = graphs
    gd = difference(g1, g2)
    bg = gd.where((F.col("src") >= 48) & (F.col("dst") >= 48))
    mx = bg.agg(F.max(F.abs(F.col("weight")))).collect()[0][0]
    assert mx < 15.0
