"""Tables III, IV, VIII & IX — the co-author study on the DBLP graphs.

Each of the four DBLP difference graphs is solved once by DCSGreedy (the
average-degree DCS), NewSEA (the graph-affinity DCS) and EgoScan (which
maximizes the *total* edge-weight difference W_D(S)), and
:func:`.common.solution_row` describes each solution once:

* Table III lists the DCSGreedy and NewSEA members, with their simplex
  weights for NewSEA;
* Table IV maps those two solutions to the planted group they recover,
  with the densities and DCSGreedy's data-dependent ratio;
* Table VIII gives the statistics and running time of EgoScan's subgraph;
* Table IX sets W_D(S) of the three solutions side by side — EgoScan wins
  on its own objective while losing badly on average degree / edge
  density, as in the paper.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..baselines.egoscan import egoscan
from ..core.dcsad import dcs_greedy
from ..core.newsea import newsea
from ..datasets import CONFIGS, get_dataset
from .common import solution_row, timed

COLUMNS_T3 = ["setting", "gd_type", "measure", "members"]
COLUMNS_T4 = [
    "setting", "gd_type", "measure", "group", "size", "positive_clique",
    "avg_degree_diff", "approx_ratio", "affinity_diff", "edge_density_diff",
]
COLUMNS_T8 = [
    "setting", "gd_type", "size", "n_edges", "positive_clique",
    "avg_degree_diff", "edge_density_diff", "t_egoscan",
]
COLUMNS_T9 = ["setting", "gd_type", "w_dcsgreedy", "w_newsea", "w_egoscan"]


def run(spark: SparkSession, scale: str) -> tuple[list, list, list, list]:
    """Returns the rows of Tables III, IV, VIII and IX."""
    t3, t4, t8, t9 = [], [], [], []
    for cfg in CONFIGS["dblp"]:
        setting, gd_type = cfg.split("-")
        key = {"setting": setting, "gd_type": gd_type}
        ds = get_dataset(spark, "dblp", cfg, scale)
        g = ds.local

        ad = dcs_greedy(g)
        ga = newsea(g.positive_part())
        es, t_es = timed(egoscan, g)
        ad_row = solution_row(ds, ad.S)
        ga_row = solution_row(ds, list(ga.x), x=ga.x)
        es_row = solution_row(ds, es.S)

        t3 += [
            {**key, "measure": "avg-degree",
             "members": sorted(ds.labels[v] for v in g.to_ids(ad.S))},
            {**key, "measure": "graph-affinity",
             "members": sorted((ds.labels[g.ids[i]], round(w, 4))
                               for i, w in ga.x.items())},
        ]
        t4 += [
            {**key, "measure": "avg-degree", "approx_ratio": ad.ratio,
             "affinity_diff": None, **ad_row},
            {**key, "measure": "graph-affinity", "approx_ratio": None,
             **ga_row},
        ]
        t8.append({**key, **es_row, "n_edges": es.n_edges, "t_egoscan": t_es})
        t9.append({**key, "w_dcsgreedy": ad_row["total_weight_diff"],
                   "w_newsea": ga_row["total_weight_diff"],
                   "w_egoscan": es_row["total_weight_diff"]})
    return t3, t4, t8, t9
