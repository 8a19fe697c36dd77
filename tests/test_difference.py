"""Difference-graph construction in Spark, oracle-checked against DuckDB."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.difference import (
    canonicalize,
    cap_weights,
    difference,
    discretize,
    flip,
)

from tests.oracle import assert_equivalent


@pytest.fixture
def g1_pdf():
    return pd.DataFrame(
        {"src": [1, 2, 3, 4], "dst": [2, 3, 4, 5], "weight": [1.0, 2.0, 3.0, 1.0]}
    )


@pytest.fixture
def g2_pdf():
    return pd.DataFrame(
        {"src": [2, 1, 2, 6], "dst": [1, 3, 3, 7], "weight": [1.0, 4.0, 5.0, 2.0]}
    )


def test_canonicalize_orders_and_sums(spark):
    pdf = pd.DataFrame(
        {"src": [2, 1, 3], "dst": [1, 2, 3], "weight": [1.0, 2.0, 9.0]}
    )
    out = canonicalize(spark.createDataFrame(pdf)).collect()
    rows = {(r["src"], r["dst"]): r["weight"] for r in out}
    assert rows == {(1, 2): 3.0}  # both orientations summed, loop dropped


def test_canonicalize_oracle(spark, g2_pdf):
    out = canonicalize(spark.createDataFrame(g2_pdf))
    assert_equivalent(
        out,
        """
        SELECT least(src, dst) AS src, greatest(src, dst) AS dst,
               sum(weight) AS weight
        FROM edges WHERE src <> dst GROUP BY 1, 2
        """,
        edges=g2_pdf,
    )


def test_difference_values(spark, g1_pdf, g2_pdf):
    gd = difference(spark.createDataFrame(g1_pdf), spark.createDataFrame(g2_pdf))
    rows = {(r["src"], r["dst"]): r["weight"] for r in gd.collect()}
    # (1,2): 1 - 1 = 0 dropped; (1,3): 4; (2,3): 5-2=3; (3,4): -3;
    # (4,5): -1; (6,7): +2
    assert rows == {(1, 3): 4.0, (2, 3): 3.0, (3, 4): -3.0, (4, 5): -1.0,
                    (6, 7): 2.0}


def test_difference_oracle(spark, g1_pdf, g2_pdf):
    gd = difference(spark.createDataFrame(g1_pdf), spark.createDataFrame(g2_pdf))
    assert_equivalent(
        gd,
        """
        WITH c1 AS (SELECT least(src,dst) s, greatest(src,dst) d,
                           sum(weight) w FROM g1 WHERE src<>dst GROUP BY 1,2),
             c2 AS (SELECT least(src,dst) s, greatest(src,dst) d,
                           sum(weight) w FROM g2 WHERE src<>dst GROUP BY 1,2)
        SELECT coalesce(c2.s, c1.s) AS src, coalesce(c2.d, c1.d) AS dst,
               coalesce(c2.w, 0) - coalesce(c1.w, 0) AS weight
        FROM c2 FULL OUTER JOIN c1 ON c2.s = c1.s AND c2.d = c1.d
        WHERE coalesce(c2.w, 0) - coalesce(c1.w, 0) <> 0
        """,
        g1=g1_pdf,
        g2=g2_pdf,
    )


def test_difference_alpha(spark, g1_pdf, g2_pdf):
    gd = difference(
        spark.createDataFrame(g1_pdf), spark.createDataFrame(g2_pdf), alpha=2.0
    )
    rows = {(r["src"], r["dst"]): r["weight"] for r in gd.collect()}
    assert rows[(2, 3)] == 5.0 - 2 * 2.0
    assert rows[(1, 2)] == 1.0 - 2 * 1.0


def test_flip(spark, g1_pdf, g2_pdf):
    gd = difference(spark.createDataFrame(g1_pdf), spark.createDataFrame(g2_pdf))
    total = gd.agg(F.sum("weight")).collect()[0][0]
    total_flipped = flip(gd).agg(F.sum("weight")).collect()[0][0]
    assert total_flipped == pytest.approx(-total)


@pytest.mark.parametrize(
    "w,expected",
    [(6.0, 2.0), (5.0, 2.0), (4.9, 1.0), (2.0, 1.0), (1.0, None),
     (-1.0, -1.0), (-3.9, -1.0), (-4.0, -2.0), (-10.0, -2.0)],
)
def test_discretize_mapping(spark, w, expected):
    pdf = pd.DataFrame({"src": [0], "dst": [1], "weight": [w]})
    out = discretize(spark.createDataFrame(pdf)).collect()
    if expected is None:
        assert out == []
    else:
        assert out[0]["weight"] == expected


def test_discretize_oracle(spark):
    pdf = pd.DataFrame(
        {"src": range(8), "dst": range(1, 9),
         "weight": [6.0, 5.0, 4.9, 2.0, 1.0, -1.0, -4.0, -10.0]}
    )
    out = discretize(spark.createDataFrame(pdf))
    assert_equivalent(
        out,
        """
        SELECT * FROM (
          SELECT src, dst,
            CASE WHEN weight >= 5 THEN 2.0 WHEN weight >= 2 THEN 1.0
                 WHEN weight > 0 THEN 0.0 WHEN weight > -4 THEN -1.0
                 ELSE -2.0 END AS weight
          FROM e
        ) WHERE weight <> 0
        """,
        e=pdf,
    )


def test_cap_weights(spark):
    pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": [15.0, 3.0]})
    rows = {
        (r["src"], r["dst"]): r["weight"]
        for r in cap_weights(spark.createDataFrame(pdf), 10.0).collect()
    }
    assert rows == {(0, 1): 10.0, (1, 2): 3.0}
