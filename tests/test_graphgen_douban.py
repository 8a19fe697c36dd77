"""Douban generator: Jaccard-over-2-hop pipeline oracle + planted cliques."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.difference import difference
from repro.graphgen import douban

from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def movie(spark):
    g1, g2, planted = douban.douban_graphs(spark, "movie", n=1200, scale=0.3)
    return g1.cache(), g2.cache(), planted


def test_two_hop_pairs_oracle(spark):
    social_pdf = pd.DataFrame(
        {"src": [0, 1, 2, 5], "dst": [1, 2, 3, 6], "weight": [1.0] * 4}
    )
    out = douban.two_hop_pairs(spark.createDataFrame(social_pdf))
    assert_equivalent(
        out.select(F.col("u"), F.col("v")),
        """
        WITH b AS (
          SELECT src AS u, dst AS v FROM e
          UNION ALL SELECT dst AS u, src AS v FROM e
        )
        SELECT DISTINCT u, v FROM (
          SELECT a.u AS u, b2.u AS v FROM b a JOIN b b2 ON a.v = b2.v
          WHERE a.u < b2.u
          UNION ALL SELECT src AS u, dst AS v FROM e
        )
        """,
        e=social_pdf,
    )


# (social edges, ratings as (user, item) rows, thr, expected interest edges)
_INTEREST_CASES = {
    "mixed": ([(0, 1), (0, 2), (0, 3), (4, 5)],
              [(1, 10), (1, 11), (1, 12), (2, 10), (2, 11), (2, 13),
               (3, 50), (3, 51), (4, 10), (5, 10)],
              0.3, [(1, 2), (4, 5)]),
    # (1, 2) has Jaccard 1/3 exactly, which ``> thr`` excludes.
    "jaccard-equals-thr": ([(1, 2), (3, 4)],
                           [(1, 10), (1, 11), (2, 10), (2, 12),
                            (3, 20), (3, 21), (4, 20), (4, 21)],
                           1 / 3, [(3, 4)]),
    # Path 1-2-3-4: (1, 4) rate alike but are three hops apart.
    "beyond-two-hops": ([(1, 2), (2, 3), (3, 4)],
                        [(1, 10), (2, 10), (3, 31), (4, 10)],
                        0.3, [(1, 2), (2, 4)]),
    # Star around 0: (1, 2) is 2-hop only through their common neighbour.
    "common-neighbour-only": ([(0, 1), (0, 2)],
                              [(0, 99), (1, 10), (1, 11), (2, 10), (2, 11)],
                              0.3, [(1, 2)]),
    # Users 1-3 rate one item each; user 4's Jaccard with each is 1/3.
    "single-rating-users": ([(1, 2), (2, 3), (3, 4), (1, 4)],
                            [(1, 10), (2, 10), (3, 11), (4, 10), (4, 11),
                             (4, 12)],
                            0.3, [(1, 2), (1, 4), (2, 4), (3, 4)]),
    # User 1 rates item 10 twice: counted as rows, (1, 3) has Jaccard
    # 2 / (3 + 2 - 2) = 2/3 (1/3 as sets) and (1, 2) has 3 / 2.
    "repeated-rating": ([(1, 2), (1, 3)],
                        [(1, 10), (1, 10), (1, 11), (2, 10), (2, 11),
                         (3, 10), (3, 12)],
                        0.5, [(1, 2), (1, 3)]),
}


@pytest.mark.parametrize("case", _INTEREST_CASES)
def test_interest_graph_oracle(spark, case):
    """Full Jaccard pipeline vs. an independent DuckDB formulation."""
    social, ratings, thr, expected = _INTEREST_CASES[case]
    social_pdf = pd.DataFrame(social, columns=["src", "dst"]).assign(weight=1.0)
    ratings_pdf = pd.DataFrame(ratings, columns=["user", "item"])
    out = douban.interest_graph(
        spark.createDataFrame(social_pdf),
        spark.createDataFrame(ratings_pdf.assign(
            sz=ratings_pdf.groupby("user")["user"].transform("size"))),
        thr=thr,
    )
    assert sorted((r.src, r.dst) for r in out.collect()) == expected
    assert_equivalent(
        out,
        """
        WITH sizes AS (SELECT "user" AS u, count(*) AS sz FROM r GROUP BY 1),
        inter AS (
          SELECT a."user" AS u, b."user" AS v, count(*) AS i
          FROM r a JOIN r b ON a.item = b.item AND a."user" < b."user"
          GROUP BY 1, 2
        ),
        jac AS (
          SELECT inter.u, inter.v,
                 CAST(i AS DOUBLE) / (su.sz + sv.sz - i) AS j
          FROM inter
          JOIN sizes su ON su.u = inter.u JOIN sizes sv ON sv.u = inter.v
        ),
        hop2 AS (
          WITH b AS (SELECT src AS u, dst AS v FROM e
                     UNION ALL SELECT dst, src FROM e)
          SELECT DISTINCT u, v FROM (
            SELECT a.u, b2.u AS v FROM b a JOIN b b2 ON a.v = b2.v
            WHERE a.u < b2.u
            UNION ALL SELECT src, dst FROM e)
        )
        SELECT jac.u AS src, jac.v AS dst, 1.0 AS weight
        FROM jac JOIN hop2 ON jac.u = hop2.u AND jac.v = hop2.v
        WHERE j > (SELECT thr FROM t)
        """,
        r=ratings_pdf,
        e=social_pdf,
        t=pd.DataFrame({"thr": [thr]}),
    )


def test_interest_graph_plan_has_no_window(spark):
    """Rating counts come from the generator; Spark needs no Window."""
    _, g2, _ = douban.douban_graphs(spark, "movie", n=1200, scale=0.3)
    plan = g2._jdf.queryExecution().executedPlan().toString()
    assert "Window" not in plan, plan


def test_interest_clique_complete(spark, movie):
    """Identical rating lists + common hub -> a full unit clique in G2."""
    _, g2, planted = movie
    ids = planted["interest-clique"]
    k = len(ids)
    cnt = g2.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).count()
    assert cnt == k * (k - 1) // 2


def test_interest_clique_not_social(spark, movie):
    g1, _, planted = movie
    ids = planted["interest-clique"]
    cnt = g1.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).count()
    assert cnt == 0


def test_social_clique_stays_clique_in_gd(spark, movie):
    """Disjoint ratings: the social clique survives intact in G1 - G2."""
    g1, g2, planted = movie
    gd = difference(g2, g1)  # social - interest
    ids = planted["social-clique"]
    k = len(ids)
    rows = gd.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).collect()
    assert len(rows) == k * (k - 1) // 2
    assert all(r["weight"] == 1.0 for r in rows)


def test_unit_weights(spark, movie):
    g1, g2, _ = movie
    for g in (g1, g2):
        assert g.where(F.col("weight") != 1.0).count() == 0


def test_cluster_density_window(spark, movie):
    """The interest cluster's edge fraction must sit between the clique-
    number danger zone and the DCSAD-winning floor (DESIGN.md §2)."""
    _, g2, planted = movie
    ids = planted["interest-cluster"]
    k = len(ids)
    cnt = g2.where(F.col("src").isin(ids) & F.col("dst").isin(ids)).count()
    frac = cnt / (k * (k - 1) / 2)
    assert 0.1 < frac < 0.45
