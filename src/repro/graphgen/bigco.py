"""Synthetic DBLP-C and Actor collaboration networks (Appendix B-3).

DBLP-C: papers at uniform times in [0, 1), counted per (pair, era) on the
driver with the median time 0.5 as the era boundary, in the columns of
DBLP's events, so :func:`.coauthor.era_graphs` splits them into G1/G2;
planted pair with weight difference 400 (weighted affinity 200, as in
Table XIV), a 26-clique of raw difference 6 (discrete weight 2 → affinity
50/26 ≈ 1.92) and an extreme negative pair (−186, Table II).

Actor: an all-positive collaboration network used directly as the
difference graph; weights ≈ 1 + Poisson (mean ≈ 1.1 as in Table II);
planted dominant triangle (216, 112, 112) → weighted affinity ≈ 108,
and a 21-clique of uniform raw weight 12 → capped affinity 10·20/21 ≈
9.52 beating any capped pair (5) or capped triangle (20/3), matching
Table XIV's winner structure (weighted DCS = tiny heavy group, discrete
DCS = the 21-clique).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .background import chung_lu_pairs, clique_edges

DBLPC_PLANTED = {
    "heavy-pair": [0, 1],
    "neg-pair": [2, 3],
    "disc-clique": list(range(10, 36)),  # 26 authors
}

ACTOR_PLANTED = {
    "heavy-triangle": [0, 1, 2],
    "disc-clique": list(range(10, 31)),  # 21 actors
}


def dblpc_events(n: int, bg_pairs: int, seed: int = 19) -> pd.DataFrame:
    """Papers per (pair, era): columns src, dst, era, papers, as
    :func:`.coauthor.events`.

    A background pair writes 1 + Poisson(1) papers at uniform times in
    [0, 1); those at or after 0.5 fall in era 2. The planted pairs get
    their era counts directly.
    """
    g = np.random.default_rng(seed)
    bg = chung_lu_pairs(n - 40, bg_pairs, seed=seed, id_offset=40)
    c = 1 + g.poisson(1.0, len(bg))
    late = g.uniform(0.0, 1.0, c.sum()) >= 0.5
    # Every pair has c >= 1 papers, so no reduceat segment is empty.
    bg_late = np.add.reduceat(late.astype(int), np.cumsum(c) - c)
    cq = clique_edges(DBLPC_PLANTED["disc-clique"])
    src = np.concatenate([bg["src"], [0, 2], cq["src"]])
    dst = np.concatenate([bg["dst"], [1, 3], cq["dst"]])
    # Planted era counts: diff +400, diff -186, and +6 -> discrete 2.
    e1 = np.concatenate([c - bg_late, [5, 188], np.full(len(cq), 1)])
    e2 = np.concatenate([bg_late, [405, 2], np.full(len(cq), 7)])
    ev = pd.concat([
        pd.DataFrame({"src": src, "dst": dst, "era": era, "papers": papers})
        for era, papers in ((1, e1), (2, e2))
    ], ignore_index=True)
    return ev[ev["papers"] > 0].reset_index(drop=True)


def actor_edges(n: int, bg_pairs: int, seed: int = 23) -> pd.DataFrame:
    """The Actor collaboration network, used directly as G_D."""
    g = np.random.default_rng(seed)
    bg = chung_lu_pairs(n - 40, bg_pairs, seed=seed, id_offset=40)
    w = (1 + g.poisson(0.12, len(bg))).astype(float)
    parts = [
        pd.DataFrame({"src": bg["src"], "dst": bg["dst"], "weight": w}),
        clique_edges([0, 1, 2], weights=[216.0, 112.0, 112.0]),
        # 21-clique of uniform raw weight 12: above the Discrete cap of
        # 10, so capped affinity 10*20/21 ≈ 9.52 is maximized by the
        # *full* clique (any sub-clique scores 10*(k-1)/k < it), while
        # the weighted affinity 12*20/21 stays far below the triangle's.
        clique_edges(ACTOR_PLANTED["disc-clique"], weight=12.0),
    ]
    return pd.concat(parts, ignore_index=True)


def actor_graph(spark: SparkSession, n: int, bg_pairs: int,
                seed: int = 23) -> DataFrame:
    return spark.createDataFrame(actor_edges(n, bg_pairs, seed=seed))
