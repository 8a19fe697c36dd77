"""Synthetic Wikipedia-style signed interaction networks (Appendix B-1).

Two weighted networks over the same editors: G1 = positive interactions,
G2 = negative interactions. Consistent ``G_D = G1 - G2``; Conflicting
``G_D = G2 - G1``. Planted structure (DESIGN.md §2):

* a consistent 5-group (pairwise positive ≈ 8.63 → affinity ≈ 6.9) and a
  conflicting 6-group (pairwise negative ≈ 7.75 → affinity ≈ 6.46);
* a large mid-density consistent community and a smaller conflicting one
  for the DCSAD rows (big, non-clique subgraphs as in Table X);
* one extreme positive (9.62) and one extreme negative (12.46) edge
  reproducing Table II's max/min weights; their affinities (4.81/6.23)
  stay below the planted cliques, exactly as in the paper's data.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .background import chung_lu_pairs, clique_edges, random_subset_edges

CONSISTENT_CLIQUE = list(range(0, 5))
CONFLICT_CLIQUE = list(range(5, 11))
EXTREME_POS = (11, 12)
EXTREME_NEG = (13, 14)


def planted_ranges(n_big_cons: int, n_big_conf: int) -> dict:
    return {
        "consistent-clique": CONSISTENT_CLIQUE,
        "conflict-clique": CONFLICT_CLIQUE,
        "consistent-big": list(range(100, 100 + n_big_cons)),
        "conflict-big": list(range(100 + n_big_cons,
                                   100 + n_big_cons + n_big_conf)),
    }


def _bg_weight(rng):
    return min(4.5, 1.0 + rng.exponential(0.75))


def interaction_graphs(spark: SparkSession, *, n: int, bg_edges: int,
                       n_big_cons: int, n_big_conf: int, seed: int = 13
                       ) -> tuple[DataFrame, DataFrame, dict]:
    """Returns (G1 positive net, G2 negative net, planted ranges)."""
    g = np.random.default_rng(seed)
    ranges = planted_ranges(n_big_cons, n_big_conf)
    big_cons = ranges["consistent-big"]
    big_conf = ranges["conflict-big"]
    bg_lo = 100 + n_big_cons + n_big_conf

    def bg(seed_off: int) -> pd.DataFrame:
        pairs = chung_lu_pairs(n - bg_lo, bg_edges, seed=seed + seed_off,
                               id_offset=bg_lo)
        rng = np.random.default_rng(seed + seed_off + 100)
        w = np.minimum(4.5, 1.0 + rng.exponential(0.6, len(pairs)))
        return pd.DataFrame({"src": pairs["src"], "dst": pairs["dst"],
                             "weight": w})

    # Difference weights are (G1 - 0.2) for the consistent clique and
    # (G2 - 0.2) for the conflicting one, so target the paper's
    # affinities 6.901 / 6.456 after that offset: mean 8.83 - 0.2 = 8.63
    # -> f = 8.63 * 4/5 = 6.90; mean 7.95 - 0.2 = 7.75 -> f = 6.46.
    cons_w = 0.2 + np.array([8.9, 8.8, 8.7, 8.6, 8.5, 8.6, 8.6, 8.7, 8.5, 8.4])
    conf_w = 7.95 + g.uniform(-0.15, 0.15, 15)

    pos_parts = [
        bg(0),
        clique_edges(CONSISTENT_CLIQUE, weights=list(cons_w)),
        clique_edges(CONFLICT_CLIQUE, weight=0.2),
        random_subset_edges(big_cons, 0.25, weight_fn=_bg_weight,
                            seed=seed + 1),
        random_subset_edges(big_conf, 0.02, weight_fn=lambda r: 0.5,
                            seed=seed + 2),
        pd.DataFrame([[*sorted(EXTREME_POS), 9.62]],
                     columns=["src", "dst", "weight"]),
    ]
    neg_parts = [
        bg(50),
        clique_edges(CONSISTENT_CLIQUE, weight=0.2),
        clique_edges(CONFLICT_CLIQUE, weights=list(conf_w)),
        random_subset_edges(big_cons, 0.02, weight_fn=lambda r: 0.5,
                            seed=seed + 3),
        random_subset_edges(big_conf, 0.45,
                            weight_fn=lambda r: min(4.5, 1.0 + r.exponential(0.6)),
                            seed=seed + 4),
        pd.DataFrame([[*sorted(EXTREME_NEG), 12.46]],
                     columns=["src", "dst", "weight"]),
    ]
    g1 = spark.createDataFrame(pd.concat(pos_parts, ignore_index=True))
    g2 = spark.createDataFrame(pd.concat(neg_parts, ignore_index=True))
    return g1, g2, ranges
