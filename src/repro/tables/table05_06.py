"""Tables V & VI — top-5 data mining topics w.r.t. graph affinity.

Table V: top-5 emerging / disappearing topics mined from the DM
difference graphs by SEACD+Refinement initialized at every keyword, with
duplicate and subset cliques removed (Section VI-C).

Table VI: the same procedure on the two keyword-association graphs
``G1`` (early era) and ``G2`` (recent era) *alone*, demonstrating why
single-graph mining does not surface emerging topics.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.newsea import dedup_cliques, seacd_refine_full
from ..datasets import dm_single_graphs, get_dataset

COLUMNS = ["gd_type", "rank", "topic", "affinity"]


def _top5(gdp_local) -> list:
    full = seacd_refine_full(gdp_local)
    top = dedup_cliques(full.cliques)[:5]
    out = []
    for rank, (_, f, x) in enumerate(top, start=1):
        topic = {
            gdp_local.ids[i]: round(w, 2)
            for i, w in sorted(x.items(), key=lambda kv: -kv[1])
        }
        out.append({"rank": rank, "topic": topic, "affinity": f})
    return out


def run_table5(spark: SparkSession, scale: str = "bench") -> list:
    rows = []
    for cfg in ("emerging", "disappearing"):
        ds = get_dataset(spark, "dm", cfg, scale)
        for r in _top5(ds.local.positive_part()):
            rows.append({"gd_type": cfg, **r})
    return rows


def run_table6(spark: SparkSession, scale: str = "bench") -> list:
    rows = []
    for name, ds in zip(("G1 (early)", "G2 (recent)"),
                        dm_single_graphs(spark, scale)):
        for r in _top5(ds.local.positive_part()):
            rows.append({"gd_type": name, **r})
    return rows
