"""Synthetic Douban-style social network + rating data (Appendix B-2).

``G1`` is a unit-weight social graph; ``G2`` is the *interest* graph:
an edge (u, v) iff u and v are within 2 hops in G1 and the Jaccard
similarity of their rated-item sets exceeds a threshold (0.2 for Movie,
0.1 for Book) — the Jaccard-over-2-hop pipeline (:func:`interest_graph`,
one grouping of co-rated pairs in Spark SQL) is oracle-checked in tests.
The ratings are generated on the driver, which also puts each user's
rating count on their rating rows; Spark joins and groups across users.

Planted structure (DESIGN.md §2): an interest clique of users with
identical rating lists (movie 32 / book 14, pairwise 2-hop via a hub),
a social clique with random ratings (movie 18 / book 22), a large
interest cluster whose rating-pool size tunes its edge fraction, and a
large sparse social community — reproducing the exact (k-1)/k affinities
of Table XIII and the density *shape* of Table XII.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .background import chung_lu_pairs, clique_edges, random_subset_edges


def scaled_params(kind: str, scale: float) -> dict:
    """``kind``'s generator parameters, with the big structures (never the
    planted cliques) shrunk by ``scale``."""
    if kind == "movie":
        p = dict(clique_i=32, clique_s=18, cluster=250, community=500,
                 comm_p=0.05, pool_cluster=140, per_cluster=40,
                 pool_planted=40, n_items=3000, per_user=8, thr=0.2)
    else:
        # comm_p is set so the community's density survives the sparse
        # negative (interest-only) edges that random book ratings induce
        # at threshold 0.1, keeping it above the 22-clique's rho = 21.
        p = dict(clique_i=14, clique_s=22, cluster=150, community=550,
                 comm_p=0.06, pool_cluster=220, per_cluster=25,
                 pool_planted=25, n_items=2000, per_user=5, thr=0.1)
    for key in ("cluster", "community", "n_items"):
        p[key] = max(20, int(p[key] * scale))
    return p


def build_raw(kind: str, *, n: int, scale: float = 1.0, seed: int = 17):
    """Generate (social_edges_pdf, ratings_pdf, planted, params).

    Ratings items are namespaced integers; planted ids occupy the low
    range, the two hubs sit just below ``n``.
    """
    p = scaled_params(kind, scale)
    g = np.random.default_rng(seed)
    ci = list(range(0, p["clique_i"]))
    cs = list(range(p["clique_i"], p["clique_i"] + p["clique_s"]))
    lo = 100
    cluster = list(range(lo, lo + p["cluster"]))
    community = list(range(lo + p["cluster"],
                           lo + p["cluster"] + p["community"]))
    bg_lo = lo + p["cluster"] + p["community"]
    hub_a, hub_b = n - 2, n - 1

    planted = {
        "interest-clique": ci,
        "social-clique": cs,
        "interest-cluster": cluster,
        "social-community": community,
    }

    social = [
        # hubs give the 2-hop closure for the interest structures
        pd.DataFrame({"src": ci, "dst": hub_a}),
        pd.DataFrame({"src": cluster, "dst": hub_b}),
        clique_edges(cs)[["src", "dst"]],
        random_subset_edges(community, p["comm_p"], seed=seed + 1)[
            ["src", "dst"]
        ],
        chung_lu_pairs(max(2, n - 2 - bg_lo), 2 * n // 3, seed=seed + 2,
                       id_offset=bg_lo),
    ]
    # Every part is canonical (src < dst) and the parts share no pair.
    social_pdf = pd.concat(social, ignore_index=True)

    # Ratings. Item id ranges: [0, pool_planted) identical planted lists,
    # [1000, 1000 + pool_cluster) shared cluster pool, [10000, ...) global.
    rat_rows = []
    for u in ci:
        for it in range(p["pool_planted"]):
            rat_rows.append((u, it))
    for u in cluster:
        items = g.choice(p["pool_cluster"], size=p["per_cluster"],
                         replace=False)
        for it in items:
            rat_rows.append((u, 1000 + int(it)))
    for u in list(range(bg_lo, n)) + community + [hub_a, hub_b]:
        items = g.choice(p["n_items"], size=p["per_user"], replace=False)
        for it in items:
            rat_rows.append((u, 10000 + int(it)))
    # Social-clique members rate pairwise-disjoint item sets so no
    # accidental Jaccard edge erases an edge of the planted social clique
    # in the difference graph (the clique must stay a positive clique in
    # the Social-Interest G_D, Table XIII).
    for k, u in enumerate(cs):
        for j in range(p["per_user"]):
            rat_rows.append((u, 20000 + k * p["per_user"] + j))
    ratings_pdf = pd.DataFrame(rat_rows, columns=["user", "item"])
    return social_pdf, ratings_pdf, planted, p


def two_hop_pairs(social: DataFrame) -> DataFrame:
    """Unordered pairs (u < v) within 2 hops in the social graph (Spark)."""
    e = social.select("src", "dst")
    both = e.unionAll(e.select(F.col("dst").alias("src"),
                               F.col("src").alias("dst")))
    a = both.alias("a")
    b = both.alias("b")
    common = (
        a.join(b, F.col("a.dst") == F.col("b.dst"))
        .where(F.col("a.src") < F.col("b.src"))
        .select(F.col("a.src").alias("u"), F.col("b.src").alias("v"))
    )
    direct = e.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    return common.unionAll(direct).distinct()


def interest_graph(social: DataFrame, ratings: DataFrame,
                   thr: float) -> DataFrame:
    """Unit-weight Jaccard interest graph restricted to 2-hop pairs.

    ``ratings`` has columns (user, item, sz), where every row carries
    ``sz``, its user's rating count (rows, not distinct items): one
    grouping of the co-rated pairs then gives |A∩B|, |A| and |B|.
    """
    a = ratings.alias("a")
    b = ratings.alias("b")
    jac = (
        a.join(b, F.col("a.item") == F.col("b.item"))
        .where(F.col("a.user") < F.col("b.user"))
        .groupBy(F.col("a.user").alias("u"), F.col("b.user").alias("v"),
                 F.col("a.sz").alias("su"), F.col("b.sz").alias("sv"))
        .agg(F.count("*").alias("inter"))
        .withColumn(
            "jaccard",
            F.col("inter") / (F.col("su") + F.col("sv") - F.col("inter")),
        )
        .where(F.col("jaccard") > F.lit(thr))
    )
    hop2 = two_hop_pairs(social)
    return (
        jac.join(hop2, ["u", "v"], "left_semi")
        .select(F.col("u").alias("src"), F.col("v").alias("dst"),
                F.lit(1.0).alias("weight"))
    )


def douban_graphs(spark: SparkSession, kind: str, *, n: int,
                  scale: float = 1.0, seed: int = 17
                  ) -> tuple[DataFrame, DataFrame, dict]:
    """Returns (G1 social, G2 interest, planted ranges)."""
    social_pdf, ratings_pdf, planted, p = build_raw(
        kind, n=n, scale=scale, seed=seed
    )
    social = spark.createDataFrame(
        social_pdf.assign(weight=1.0)
    )
    ratings = spark.createDataFrame(ratings_pdf.assign(
        sz=ratings_pdf.groupby("user")["user"].transform("size")))
    interest = interest_graph(social, ratings, p["thr"])
    return social, interest, planted
