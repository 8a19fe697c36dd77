"""Tables X–XIV — DCS on the Wiki, Douban, DBLP-C and Actor graphs.

X / XII (average degree): DCSGreedy plus the two raw greedy variants
("G_D only" and "G_D+ only") per configuration. XI / XIII / XIV (graph
affinity): the NewSEA solution with its affinity and edge-density
differences. :func:`.common.solution_row` describes every solution.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.dcsad import dcs_greedy
from ..core.newsea import newsea
from ..datasets import CONFIGS, get_dataset
from .common import solution_row

COLUMNS_AD = [
    "data", "gd_type",
    "dcsg_size", "dcsg_rho", "dcsg_ratio", "dcsg_pos_clique",
    "gd_size", "gd_rho", "gd_pos_clique",
    "gdp_size", "gdp_rho", "gdp_pos_clique",
]
COLUMNS_GA = ["data", "gd_type", "size", "affinity_diff", "edge_density_diff"]


def run_avg_degree(spark: SparkSession, families: list, scale: str) -> list:
    """Table X (families=["wiki"]) / Table XII (["movie", "book"])."""
    rows = []
    for fam in families:
        for cfg in CONFIGS[fam]:
            ds = get_dataset(spark, fam, cfg, scale)
            r = dcs_greedy(ds.local)
            row = {"data": fam, "gd_type": cfg, "dcsg_ratio": r.ratio}
            for prefix, S in (("dcsg", r.S),
                              ("gd", r.candidates["greedy_gd"][0]),
                              ("gdp", r.candidates["greedy_gdplus"][0])):
                sol = solution_row(ds, S)
                row[f"{prefix}_size"] = sol["size"]
                row[f"{prefix}_rho"] = sol["avg_degree_diff"]
                row[f"{prefix}_pos_clique"] = sol["positive_clique"]
            rows.append(row)
    return rows


def run_affinity(spark: SparkSession, families: list, scale: str) -> list:
    """Table XI (["wiki"]) / XIII (["movie", "book"]) / XIV (["dblpc",
    "actor"])."""
    rows = []
    for fam in families:
        for cfg in CONFIGS[fam]:
            ds = get_dataset(spark, fam, cfg, scale)
            res = newsea(ds.local.positive_part())
            rows.append({"data": fam, "gd_type": cfg,
                         **solution_row(ds, list(res.x), x=res.x)})
    return rows
