"""Shared synthetic background-graph utilities.

Chung-Lu style power-law edge sampling gives the heavy-tailed degree
structure of real collaboration / interaction networks without planting
dense pockets that could contaminate the calibrated optima (see
DESIGN.md §2). All generators are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def chung_lu_pairs(n: int, m: int, *, seed: int = 0,
                   id_offset: int = 0) -> pd.DataFrame:
    """~m distinct undirected pairs with power-law expected degrees.

    Expected degrees follow rank^(-1/1.5), a degree exponent of 2.5.

    Returns a pandas DataFrame with columns ``src < dst`` drawn from
    ``id_offset .. id_offset + n - 1``. Self-loops and duplicates are
    dropped, so the realized edge count is slightly below ``m``.
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / 1.5)
    p = w / w.sum()
    a = g.choice(n, size=2 * m, p=p)
    b = g.choice(n, size=2 * m, p=p)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    pairs = pd.DataFrame({"src": lo[keep], "dst": hi[keep]})
    pairs = pairs.drop_duplicates().head(m).reset_index(drop=True)
    # Randomize which structural slot gets which id so planted-id ranges
    # don't correlate with degree.
    perm = g.permutation(n)
    pairs["src"] = perm[pairs["src"].to_numpy()] + id_offset
    pairs["dst"] = perm[pairs["dst"].to_numpy()] + id_offset
    lo = pairs[["src", "dst"]].min(axis=1)
    hi = pairs[["src", "dst"]].max(axis=1)
    return pd.DataFrame({"src": lo, "dst": hi})


def clique_edges(ids, weights=None, weight: float = 1.0) -> pd.DataFrame:
    """All unordered pairs of ``ids``; ``weights`` (list) or scalar weight."""
    ids = list(ids)
    rows = []
    k = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            w = weights[k] if weights is not None else weight
            a, b = ids[i], ids[j]
            rows.append((min(a, b), max(a, b), float(w)))
            k += 1
    return pd.DataFrame(rows, columns=["src", "dst", "weight"])


def random_subset_edges(ids, p: float, *, weight_fn=None, seed: int = 0
                        ) -> pd.DataFrame:
    """Each unordered pair of ``ids`` kept with prob p; weight via weight_fn(rng)."""
    g = np.random.default_rng(seed)
    ids = list(ids)
    rows = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if g.random() < p:
                w = weight_fn(g) if weight_fn is not None else 1.0
                rows.append((ids[i], ids[j], float(w)))
    return pd.DataFrame(rows, columns=["src", "dst", "weight"])
