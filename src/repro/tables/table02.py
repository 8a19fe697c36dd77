"""Table II — statistics of all 16 difference graphs."""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..datasets import all_configs, get_dataset
from ..graph.stats import difference_stats

COLUMNS = ["data", "config", "n", "m_pos", "m_neg", "max_w", "min_w", "avg_w"]


def run(spark: SparkSession, scale: str = "bench") -> list:
    rows = []
    for fam, cfg in all_configs():
        ds = get_dataset(spark, fam, cfg, scale)
        # n is the vertex universe, isolated vertices included (Table II).
        rows.append({"data": fam, "config": cfg, "n": ds.n,
                     **difference_stats(ds.edges)})
    return rows
