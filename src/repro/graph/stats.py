"""Table II statistics of a difference graph, computed in Spark."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def difference_stats(gd: DataFrame) -> dict:
    """m+, m-, max/min/average edge weight of a canonical edge DataFrame."""
    row = gd.agg(
        F.sum(F.when(F.col("weight") > 0, 1).otherwise(0)).alias("m_pos"),
        F.sum(F.when(F.col("weight") < 0, 1).otherwise(0)).alias("m_neg"),
        F.max("weight").alias("max_w"),
        F.min("weight").alias("min_w"),
        F.avg("weight").alias("avg_w"),
    ).collect()[0]
    return {
        "m_pos": int(row["m_pos"] or 0),
        "m_neg": int(row["m_neg"] or 0),
        "max_w": float(row["max_w"]) if row["max_w"] is not None else 0.0,
        "min_w": float(row["min_w"]) if row["min_w"] is not None else 0.0,
        "avg_w": float(row["avg_w"]) if row["avg_w"] is not None else 0.0,
    }
