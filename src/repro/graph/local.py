"""Driver-side graph representation for the paper's sequential optimizers.

Spark builds and transforms the (difference) graphs; the fine-grained
iterative algorithms of the paper (exact greedy peeling, 2-coordinate
descent, replicator dynamics) run on the driver over a collected
:class:`LocalGraph`. Support sets touched by those algorithms are tiny,
which is the paper's own efficiency argument (Section V-B).

Vertices have arbitrary external ids (integers, or keyword strings for
the DM single graphs); internally they are re-indexed to ``0..n-1``.
:func:`from_edge_pandas` is the one place that lays out a graph: it takes
the sorted endpoint ids as the vertices and adds the canonical edges
sorted by (src, dst), so every ``adj[i]`` is in ascending index order
whatever order the rows arrive in. The one driver collect,
:attr:`repro.datasets.DCSDataset.local`, hands it the collected edges, so
a driver graph's ``n`` counts endpoints; the Table II vertex universe
(isolated vertices included) is ``DCSDataset.n``. None of the paper's
algorithms puts an isolated vertex into a subgraph of positive density.
``G_D+`` is built here, by :meth:`LocalGraph.positive_part`, not in Spark.

The 2-CD kernels (:mod:`repro.core.cd`) keep the gradient p = Dx in one of
two stores, chosen per graph by :attr:`LocalGraph.rows`. The dict store
pays one Python dict write per neighbour of a moved vertex. The dense
store (a numpy vector, updated a row at a time) pays a few fixed numpy
calls per move instead. 2-CD and Expansion move support vertices, and
those are reached through edges, so the rule is the edge-weighted mean
degree ``sum_u d_u^2 / sum_u d_u`` (d_u = number of neighbours): rows are
built from :data:`DENSE_DEGREE` = 32 up. Measured with
``seacd_refine_full`` on the 16 test-scale graphs and perfbench's
Douban and DM graphs ("bench-size"), dense time over dict time, min of 3
runs each, on 4 cores of a shared x86-64 host:

=========  =====================================================  ==========
degree     graphs                                                 dense/dict
=========  =====================================================  ==========
3.6-16.5   DBLP x4, DBLP-C x2, book/interest-social;              1.22-3.59
           bench-size movie/social-interest, book x2
24.2-31.4  wiki x2, movie/social-interest, book/social-interest;  0.78-1.19
           bench-size movie/interest-social
43.2-69.5  actor x2, movie/interest-social, DM x2;                0.42-0.69
           bench-size DM x2
=========  =====================================================  ==========

Forced on the ``bench``-scale dataset graphs wiki/conflicting (44.8) and
actor/weighted (83.5), the dense store took 0.53-0.55 and 0.33-0.40 of
the dict store's time (two runs each).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np
import pandas as pd

# Edge-weighted mean degree from which the dense gradient store pays off.
DENSE_DEGREE = 32.0


@dataclass
class LocalGraph:
    """Undirected weighted graph with signed weights, adjacency-dict form."""

    ids: list  # index -> external id
    adj: list  # index -> dict {neighbor index: weight}

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of unordered edges."""
        return sum(len(a) for a in self.adj) // 2

    @cached_property
    def rows(self) -> list | None:
        """Per-vertex ``(indices, weights)`` arrays, or None.

        None unless :func:`wants_dense_rows` selects the dense gradient
        store for this graph. Otherwise a list whose entry i is None until
        :meth:`row` first builds it.
        """
        return [None] * self.n if wants_dense_rows(self) else None

    def row(self, i: int) -> tuple:
        """``(np.int64 indices, np.float64 weights)`` of ``adj[i]``.

        The arrays follow ``adj[i]``'s iteration order, so Expansion's omega
        adds its products in the adjacency-dict loop's order. Built on first
        use, so a solve that touches few vertices pays for few rows.
        """
        r = self.rows[i]
        if r is None:
            a = self.adj[i]
            r = self.rows[i] = (np.fromiter(a.keys(), np.int64, len(a)),
                                np.fromiter(a.values(), np.float64, len(a)))
        return r

    def positive_part(self) -> "LocalGraph":
        """The graph G_D+ keeping only edges with strictly positive weight."""
        adj = [{j: w for j, w in a.items() if w > 0} for a in self.adj]
        return LocalGraph(self.ids, adj)

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


def wants_dense_rows(g: LocalGraph) -> bool:
    """Whether ``g`` gets the dense gradient store: its edge-weighted mean
    degree ``sum_u d_u^2 / sum_u d_u`` is at least :data:`DENSE_DEGREE`."""
    deg = list(map(len, g.adj))
    total = sum(deg)
    return total > 0 and sum(map(mul, deg, deg)) >= DENSE_DEGREE * total


def from_edge_pandas(edges: pd.DataFrame) -> LocalGraph:
    """Build a LocalGraph from a pandas edge list with columns src, dst, weight.

    The vertices are the sorted endpoint ids. The rows are added sorted by
    (src, dst), so on canonical rows (src < dst) each ``adj[i]`` lists its
    neighbours in ascending id order, whatever order the rows arrive in.
    """
    edges = edges.sort_values(["src", "dst"], ignore_index=True)
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
    return LocalGraph(ids, adj)
