"""Synthetic paper-title corpus + keyword association graphs (Section VI-C).

Edge weight = 100 × (fraction of era titles containing both keywords),
exactly the paper's construction. Topic inclusion counts are
*deterministic* (``round(rate * N)``) so the calibrated affinity ranking
of Tables V and VI is reproduced up to rounding, independent of corpus
size.

Calibration (DESIGN.md §2): pair topics have ``f = w/2``; triple topics
are "heavy pair + light third" with light/heavy ratio 0.6, giving an
optimal embedding ≈ (0.43, 0.43, 0.14) and ``f ≈ 0.514 * w_heavy`` —
matching the uneven simplex weights the paper reports. The
{unsupervised, feature, selection} topic is star-shaped through the
shared {feature, selection} pair topic, reproducing the paper's
three-way emerging clique without breaking the G1/G2 pair rankings.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

# Pair topics: (word_a, word_b): (f_in_G1, f_in_G2); edge weight = 2f.
PAIR_TOPICS = {
    ("time", "series"): (1.20, 1.00),
    ("social", "networks"): (0.05, 1.30),
    ("large", "scale"): (0.05, 0.97),
    # era 2: the star topic below adds 0.82 to this edge's weight 1.08,
    # totalling 1.90 (f2 = 0.95).
    ("feature", "selection"): (0.90, 0.54),
    ("decision", "trees"): (0.85, 0.50),
    ("nearest", "neighbor"): (0.78, 0.45),
    ("knowledge", "discovery"): (0.64, 0.02),
    ("intrusion", "detection"): (0.45, 0.04),
    ("matrix", "factorization"): (0.02, 0.72),
}

# Triple topics: (heavy_a, heavy_b, light_third): (f1, f2); the heavy pair
# weight is f / 0.5143 and the light edges are 0.6 of it.
TRIPLE_TOPICS = {
    ("support", "vector", "machines"): (1.05, 0.475),
    ("association", "rules", "mining"): (0.72, 0.02),
    ("logic", "programming", "inductive"): (0.50, 0.02),
    ("semi", "supervised", "learning"): (0.15, 0.80),
}
_F_PER_WHEAVY = 0.5143

# Star topic {unsupervised, feature, selection}: titles contain all three
# words; weights are (w, w) to 'unsupervised' plus w into the shared
# (feature, selection) edge.
UNSUP_W = (0.02, 0.82)

TOPIC_WORDS = sorted(
    {w for t in PAIR_TOPICS for w in t}
    | {w for t in TRIPLE_TOPICS for w in t}
    | {"unsupervised"}
)


def vocabulary(n_filler: int) -> list:
    return TOPIC_WORDS + [f"kw{i:04d}" for i in range(n_filler)]


def _round(x: float) -> int:
    return int(round(x))


def titles_for_era(era_n: int, era_idx: int, n_filler: int,
                   seed: int = 11) -> list:
    """List of titles (each a list of distinct words) for one era."""
    g = np.random.default_rng(seed + era_idx)
    fillers = [f"kw{i:04d}" for i in range(n_filler)]
    out: list = []

    def fill(k: int) -> list:
        return list(g.choice(len(fillers), size=k, replace=False))

    def add(words: tuple, count: int):
        for _ in range(count):
            out.append(list(words) + [fillers[i] for i in fill(3)])

    for (a, b), (f1, f2) in PAIR_TOPICS.items():
        f = f1 if era_idx == 1 else f2
        add((a, b), _round(2.0 * f * era_n / 100.0))
    for (a, b, c), (f1, f2) in TRIPLE_TOPICS.items():
        f = f1 if era_idx == 1 else f2
        wh = f / _F_PER_WHEAVY
        add((a, b, c), _round(0.6 * wh * era_n / 100.0))
        add((a, b), _round(0.4 * wh * era_n / 100.0))
    w_unsup = UNSUP_W[era_idx - 1]
    add(("unsupervised", "feature", "selection"),
        _round(w_unsup * era_n / 100.0))

    n_bg = era_n - len(out)
    assert n_bg > 0, "era size too small for planted topics"
    for _ in range(n_bg):
        out.append([fillers[i] for i in fill(4)])
    return out


def keyword_graphs(spark: SparkSession, n1: int, n2: int, n_filler: int,
                   seed: int = 11) -> tuple[DataFrame, DataFrame]:
    """Build the two keyword-association graphs.

    The driver lists each title's keyword pairs, one (era, src, dst) row
    per pair with src < dst; Spark counts each pair's titles per era.
    Returns canonical edge DataFrames (src, dst, weight) with string
    vertex ids; weight = 100 * co-occurrence fraction in the era.
    """
    cols: dict = {"era": [], "src": [], "dst": []}
    for era_idx, era_n in ((1, n1), (2, n2)):
        for words in titles_for_era(era_n, era_idx, n_filler, seed=seed):
            for a, b in combinations(sorted(set(words)), 2):
                cols["era"].append(era_idx)
                cols["src"].append(a)
                cols["dst"].append(b)
    pairs = (spark.createDataFrame(pd.DataFrame(cols))
             .groupBy("era", "src", "dst").agg(F.count("*").alias("cnt")))
    g1, g2 = (
        pairs.where(F.col("era") == era).select(
            "src", "dst",
            (F.lit(100.0) * F.col("cnt") / F.lit(float(n))).alias("weight"))
        for era, n in ((1, n1), (2, n2))
    )
    return g1, g2
