"""Driver-side graph representation for the paper's sequential optimizers.

Spark builds and transforms the (difference) graphs; the fine-grained
iterative algorithms of the paper (exact greedy peeling, 2-coordinate
descent, replicator dynamics) run on the driver over a collected
:class:`LocalGraph`. Support sets touched by those algorithms are tiny,
which is the paper's own efficiency argument (Section V-B).

Vertices are externally arbitrary integer ids; internally they are
re-indexed to ``0..n-1``. Isolated vertices (present in the vertex
universe but incident to no difference edge) are kept so that ``n``
matches the paper's Table II accounting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


@dataclass
class LocalGraph:
    """Undirected weighted graph with signed weights, adjacency-dict form."""

    n: int
    ids: list  # index -> external id
    index: dict  # external id -> index
    adj: list  # index -> dict {neighbor index: weight}

    @property
    def m(self) -> int:
        """Number of unordered edges."""
        return sum(len(a) for a in self.adj) // 2

    def weight(self, i: int, j: int) -> float:
        """Weight of edge (i, j) by internal index; 0.0 if absent."""
        return self.adj[i].get(j, 0.0)

    def positive_part(self) -> "LocalGraph":
        """The graph G_D+ keeping only edges with strictly positive weight."""
        adj = [{j: w for j, w in a.items() if w > 0} for a in self.adj]
        return LocalGraph(self.n, self.ids, self.index, adj)

    def subgraph_weight(self, S) -> float:
        """Sum of unordered edge weights inside S (internal indices)."""
        sset = set(S)
        tot = 0.0
        for i in sset:
            for j, w in self.adj[i].items():
                if j in sset and i < j:
                    tot += w
        return tot

    def to_ids(self, S) -> list:
        """Map internal indices back to external ids (sorted)."""
        return sorted(self.ids[i] for i in S)

    def connected_components_of(self, S) -> list:
        """Connected components of the induced subgraph of S (indices)."""
        sset = set(S)
        seen: set = set()
        comps = []
        for s in S:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if v in sset and v not in seen:
                        seen.add(v)
                        comp.append(v)
                        stack.append(v)
            comps.append(comp)
        return comps


def from_edge_pandas(edges: pd.DataFrame, ids: list | None = None
                     ) -> LocalGraph:
    """Build a LocalGraph from a pandas edge list with columns src, dst, weight.

    ``ids`` fixes the vertex universe (for isolated vertices); otherwise the
    universe is the sorted set of endpoint ids.
    """
    if ids is None:
        ids = sorted(set(edges["src"]).union(edges["dst"]))
    index = {v: i for i, v in enumerate(ids)}
    adj: list = [dict() for _ in ids]
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    wts = edges["weight"].to_numpy(dtype=np.float64)
    for s, d, w in zip(src, dst, wts):
        if w == 0.0 or s == d:
            continue
        i, j = index[s], index[d]
        adj[i][j] = adj[i].get(j, 0.0) + w
        adj[j][i] = adj[j].get(i, 0.0) + w
    return LocalGraph(len(ids), list(ids), index, adj)


def collect_graph(edges: DataFrame) -> LocalGraph:
    """Collect a Spark canonical edge DataFrame (src, dst, weight) to the driver."""
    pdf = edges.select("src", "dst", "weight").toPandas()
    return from_edge_pandas(pdf)
