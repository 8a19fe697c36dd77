"""Synthetic DBLP-style co-author graphs (paper Section VI-B).

Collaboration *events* ``(a, b, era, papers)``, one row per (pair, era),
are generated on the driver, split into the two era graphs by two Spark
filters, and differenced by :mod:`repro.graph.difference`. Six planted
groups are calibrated so that each (setting, G_D type, measure) cell of
Table IV selects the same kind of group the paper reports — see
DESIGN.md §2 for the calibration:

* uta-ml (4): era-2 clique, edge weights [46, 24, 24, 24, 23, 22]
  (sum 163 → avg-degree diff 81.5; dominant edge 46 → affinity ≈ 23.2).
* cmu-security (7): era-2 clique, every edge 6 (discrete weight 2 →
  avg-degree diff 12, affinity 12/7 ≈ 1.714).
* japan-robotics-1 (6): era-1 clique, weights summing 429 → 143.
* japan-robotics-2 (2): era-1 pair of weight 100 → affinity 50.
* compiler-sw (22): era-1 clique of weight 3 (discrete 1 → 21).
* japan-robotics-3 (7): era-1 clique of weight 6 (discrete 2 → 1.714).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .background import chung_lu_pairs, clique_edges

PLANTED = {
    "uta-ml": list(range(0, 4)),
    "cmu-security": list(range(4, 11)),
    "japan-robotics-1": list(range(11, 17)),
    "japan-robotics-2": list(range(17, 19)),
    "compiler-sw": list(range(19, 41)),
    "japan-robotics-3": list(range(41, 48)),
}
_N_PLANTED = 48

_UTA_W = [46.0, 24.0, 24.0, 24.0, 23.0, 22.0]
# Fifteen weights summing to 429 (avg 28.6) -> avg-degree diff 143.0.
_JR1_W = [29.0] * 9 + [28.0] * 6


def events(n: int, bg_pairs: int, seed: int = 7) -> pd.DataFrame:
    """Pairwise collaboration counts per era: columns src, dst, era, papers."""
    g = np.random.default_rng(seed)
    bg = chung_lu_pairs(n - _N_PLANTED, bg_pairs, seed=seed,
                        id_offset=_N_PLANTED)
    c = 1 + g.poisson(1.2, len(bg))
    q = g.uniform(0.25, 0.75, len(bg))
    e1 = g.binomial(c, q)
    e2 = c - e1
    rows = [
        pd.DataFrame({"src": bg["src"], "dst": bg["dst"], "era": 1, "papers": e1}),
        pd.DataFrame({"src": bg["src"], "dst": bg["dst"], "era": 2, "papers": e2}),
    ]

    def planted(name: str, era: int, weights=None, weight=None):
        e = clique_edges(PLANTED[name], weights=weights, weight=weight or 1.0)
        rows.append(
            pd.DataFrame(
                {"src": e["src"], "dst": e["dst"], "era": era,
                 "papers": e["weight"].astype(int)}
            )
        )

    planted("uta-ml", 2, weights=_UTA_W)
    planted("cmu-security", 2, weight=6)
    planted("japan-robotics-1", 1, weights=_JR1_W)
    planted("japan-robotics-2", 1, weight=100)
    planted("compiler-sw", 1, weight=3)
    planted("japan-robotics-3", 1, weight=6)
    ev = pd.concat(rows, ignore_index=True)
    return ev[ev["papers"] > 0].reset_index(drop=True)


def era_graphs(spark: SparkSession, ev: pd.DataFrame) -> tuple[DataFrame, DataFrame]:
    """The two weighted co-author graphs (Spark): one era's events each.

    ``ev`` is :func:`events` or DBLP-C's ``bigco.dblpc_events``.
    """
    df = spark.createDataFrame(ev)
    weight = F.col("papers").cast("double").alias("weight")
    g1 = df.where(F.col("era") == 1).select("src", "dst", weight)
    g2 = df.where(F.col("era") == 2).select("src", "dst", weight)
    return g1, g2


def labels(n: int) -> dict:
    out = {}
    for name, ids in PLANTED.items():
        for k, i in enumerate(ids):
            out[i] = f"{name}-{k}"
    for i in range(_N_PLANTED, n):
        out[i] = f"author-{i}"
    return out
