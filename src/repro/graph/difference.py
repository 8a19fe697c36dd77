"""Difference-graph construction in Spark SQL (Section III-B of the paper).

All edge DataFrames in this codebase are *canonical*: columns
``src, dst, weight`` with ``src < dst`` and one row per unordered edge.
``canonicalize`` (summing duplicate orientations) runs only in
``difference``; Actor's G_D and the DM keyword graphs are canonical as
generated (``tests/test_datasets.py`` checks every dataset).
``difference`` builds ``G_D`` with ``D = A2 - A1`` as one grouped sum
of G2's rows and G1's rows negated: one shuffle, no join. ``flip``
negates weights (Emerging <-> Disappearing), and ``discretize`` and
``cap_weights`` apply the Discrete-setting weight mappings. ``G_D+`` is
not built here: the driver's
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


def difference(g1: DataFrame, g2: DataFrame) -> DataFrame:
    """G_D = G2 - G1 as one grouped sum; drops exact-zero edges."""
    neg = g1.select("src", "dst",
                    (F.lit(-1.0) * F.col("weight")).alias("weight"))
    d = canonicalize(g2.select("src", "dst", "weight").unionByName(neg))
    return d.where(F.col("weight") != 0.0)


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


def cap_weights(gd: DataFrame) -> DataFrame:
    """Actor's Discrete setting: clamp weights above 10 to 10."""
    return gd.withColumn("weight", F.least(F.col("weight"), F.lit(10.0)))
