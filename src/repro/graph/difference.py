"""Difference-graph construction in Spark SQL (Section III-B of the paper).

All edge DataFrames in this codebase are *canonical*: columns
``src, dst, weight`` with ``src < dst`` and one row per unordered edge.
``canonicalize`` enforces that invariant (summing duplicate orientations),
``difference`` full-outer-joins two graphs into ``G_D`` with
``D = A2 - A1``, ``flip`` negates weights (Emerging <-> Disappearing), and
``discretize`` and ``cap_weights`` apply the Discrete-setting weight
mappings. ``G_D+`` is not built here: the driver's
:meth:`repro.graph.local.LocalGraph.positive_part` filters the collected
graph.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonicalize(edges: DataFrame) -> DataFrame:
    """Normalize (src, dst, weight) to src < dst, summing duplicates."""
    e = edges.select(
        F.least("src", "dst").alias("src"),
        F.greatest("src", "dst").alias("dst"),
        F.col("weight").cast("double").alias("weight"),
    ).where(F.col("src") != F.col("dst"))
    return e.groupBy("src", "dst").agg(F.sum("weight").alias("weight"))


def difference(g1: DataFrame, g2: DataFrame, alpha: float = 1.0) -> DataFrame:
    """G_D = G2 - alpha * G1 as a full outer join; drops exact-zero edges.

    ``alpha`` implements the generalized difference graph of Section III-D.
    """
    e1 = canonicalize(g1).withColumnRenamed("weight", "w1")
    e2 = canonicalize(g2).withColumnRenamed("weight", "w2")
    d = (
        e2.join(e1, ["src", "dst"], "full_outer")
        .select(
            "src",
            "dst",
            (
                F.coalesce(F.col("w2"), F.lit(0.0))
                - F.lit(float(alpha)) * F.coalesce(F.col("w1"), F.lit(0.0))
            ).alias("weight"),
        )
        .where(F.col("weight") != 0.0)
    )
    return d


def flip(gd: DataFrame) -> DataFrame:
    """Negate all weights (swap the roles of G1 and G2)."""
    return gd.withColumn("weight", -F.col("weight"))


def discretize(gd: DataFrame) -> DataFrame:
    """The paper's Discrete setting (Section VI-B).

    w >= 5 -> 2; 2 <= w < 5 -> 1; 0 < w < 2 -> dropped;
    -4 < w < 0 -> -1; w <= -4 -> -2. The asymmetry (small positive
    diffs dropped, small negative kept) follows the paper's stated rule and
    reproduces the m+ << m- asymmetry of Table II's DBLP Discrete rows.
    """
    w = F.col("weight")
    return (
        gd.withColumn(
            "weight",
            F.when(w >= 5.0, F.lit(2.0))
            .when(w >= 2.0, F.lit(1.0))
            .when(w > 0.0, F.lit(0.0))
            .when(w > -4.0, F.lit(-1.0))
            .otherwise(F.lit(-2.0)),
        )
        .where(F.col("weight") != 0.0)
    )


def cap_weights(gd: DataFrame, cap: float) -> DataFrame:
    """Actor-style Discrete setting: clamp weights above ``cap`` to ``cap``."""
    return gd.withColumn("weight", F.least(F.col("weight"), F.lit(float(cap))))
