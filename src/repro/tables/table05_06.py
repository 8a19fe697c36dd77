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
    ids = gdp_local.ids
    out = []
    for rank, (_, f, x) in enumerate(top, start=1):
        # Members by printed weight, descending, then by keyword, so tied
        # members print in one order whatever path the solver took.
        members = sorted((-round(w, 2), ids[i]) for i, w in x.items())
        topic = {kw: -w for w, kw in members}
        out.append({"rank": rank, "topic": topic, "affinity": f})
    return out


def _rows(labelled) -> list:
    """The top-5 rows of each (gd_type label, dataset) pair."""
    return [{"gd_type": label, **r} for label, ds in labelled
            for r in _top5(ds.local.positive_part())]


def run_table5(spark: SparkSession, scale: str) -> list:
    return _rows((cfg, get_dataset(spark, "dm", cfg, scale))
                 for cfg in ("emerging", "disappearing"))


def run_table6(spark: SparkSession, scale: str) -> list:
    return _rows(zip(("G1 (early)", "G2 (recent)"),
                     dm_single_graphs(spark, scale)))
