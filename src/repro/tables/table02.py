"""Table II — statistics of all 16 difference graphs."""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..datasets import all_configs, get_dataset
from ..graph.local import LocalGraph

COLUMNS = ["data", "config", "n", "m_pos", "m_neg", "max_w", "min_w", "avg_w"]


def edge_stats(g: LocalGraph) -> dict:
    """m+, m-, max/min/average weight over the unordered edges of ``g``."""
    w = [x for i, a in enumerate(g.adj) for j, x in a.items() if i < j]
    return {"m_pos": sum(x > 0 for x in w), "m_neg": sum(x < 0 for x in w),
            "max_w": max(w), "min_w": min(w), "avg_w": sum(w) / len(w)}


def run(spark: SparkSession, scale: str) -> list:
    rows = []
    for fam, cfg in all_configs():
        ds = get_dataset(spark, fam, cfg, scale)
        # n is the vertex universe, isolated vertices included (Table II).
        rows.append({"data": fam, "config": cfg, "n": ds.n,
                     **edge_stats(ds.local)})
    return rows
