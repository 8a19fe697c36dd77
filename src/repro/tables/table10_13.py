"""Tables X–XIII — DCS on the Wiki and Douban difference graphs.

X / XII (average degree): DCSGreedy plus the two raw greedy variants
("G_D only" and "G_D+ only") per configuration. XI / XIII (graph
affinity): the NewSEA solution with its affinity and edge-density
differences.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.dcsad import dcs_greedy
from ..core.metrics import edge_density, is_positive_clique
from ..core.newsea import newsea
from ..datasets import CONFIGS, get_dataset

COLUMNS_AD = [
    "data", "gd_type",
    "dcsg_size", "dcsg_rho", "dcsg_ratio", "dcsg_pos_clique",
    "gd_size", "gd_rho", "gd_pos_clique",
    "gdp_size", "gdp_rho", "gdp_pos_clique",
]
COLUMNS_GA = ["data", "gd_type", "size", "affinity_diff", "edge_density_diff"]


def run_avg_degree(spark: SparkSession, families: list,
                   scale: str = "bench") -> list:
    """Table X (families=["wiki"]) / Table XII (["movie", "book"])."""
    rows = []
    for fam in families:
        for cfg in CONFIGS[fam]:
            ds = get_dataset(spark, fam, cfg, scale)
            g = ds.local
            r = dcs_greedy(g)
            s_gd, rho_gd = r.candidates["greedy_gd"]
            s_gp, rho_gp = r.candidates["greedy_gdplus"]
            rows.append(
                {
                    "data": fam, "gd_type": cfg,
                    "dcsg_size": len(r.S), "dcsg_rho": r.rho,
                    "dcsg_ratio": r.ratio,
                    "dcsg_pos_clique": is_positive_clique(g, r.S),
                    "gd_size": len(s_gd), "gd_rho": rho_gd,
                    "gd_pos_clique": is_positive_clique(g, s_gd),
                    "gdp_size": len(s_gp), "gdp_rho": rho_gp,
                    "gdp_pos_clique": is_positive_clique(g, s_gp),
                }
            )
    return rows


def run_affinity(spark: SparkSession, families: list,
                 scale: str = "bench") -> list:
    """Table XI (["wiki"]) / XIII (["movie", "book"]) / XIV core loop."""
    rows = []
    for fam in families:
        for cfg in CONFIGS[fam]:
            ds = get_dataset(spark, fam, cfg, scale)
            g = ds.local
            res = newsea(g.positive_part())
            S = sorted(res.x)
            rows.append(
                {
                    "data": fam, "gd_type": cfg, "size": len(S),
                    "affinity_diff": res.f,
                    "edge_density_diff": edge_density(g, S),
                }
            )
    return rows
