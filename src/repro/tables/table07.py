"""Table VII — running time of the DCSGA algorithms + SEA expansion errors.

For every difference graph: NewSEA (smart initialization), SEACD+Refine
(every-vertex initialization) and the original SEA+Refine baseline
(replicator shrink with the loose ``|Δf| <= 1e-6`` convergence test).
``errors_sea`` counts expansions that decreased the objective — the
phenomenon of Section VI-A; the coordinate-descent algorithms must show
zero errors. ``unconverged_sea`` counts the SEA starts whose
Shrink-and-Expansion loop stopped with Z non-empty (stagnation or the
round cap), short of a global KKT point. Absolute times are Python-driver
times on synthetic graphs, so only the *ordering* (NewSEA ≪ SEACD+Refine
< SEA+Refine) and the error counts are comparable with the paper.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.newsea import newsea, sea_refine_full, seacd_refine_full
from ..datasets import all_configs, get_dataset
from .common import timed

COLUMNS = [
    "data", "config", "t_newsea", "t_seacd_refine", "t_sea_refine",
    "errors_sea", "errors_seacd", "unconverged_sea", "f_newsea", "f_seacd",
    "f_sea",
]


def run(spark: SparkSession, scale: str) -> list:
    rows = []
    for fam, cfg in all_configs():
        ds = get_dataset(spark, fam, cfg, scale)
        gdp = ds.local.positive_part()
        r_new, t_new = timed(newsea, gdp)
        r_cd, t_cd = timed(seacd_refine_full, gdp)
        r_sea, t_sea = timed(sea_refine_full, gdp)
        rows.append(
            {
                "data": fam,
                "config": cfg,
                "t_newsea": t_new,
                "t_seacd_refine": t_cd,
                "t_sea_refine": t_sea,
                "errors_sea": r_sea.expansion_errors,
                "errors_seacd": r_cd.expansion_errors,
                "unconverged_sea": r_sea.unconverged,
                "f_newsea": r_new.f,
                "f_seacd": r_cd.f,
                "f_sea": r_sea.f,
            }
        )
    return rows
