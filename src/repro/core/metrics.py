"""Density measures and solution diagnostics (conventions in DESIGN.md §1).

* ``total_degree`` W(S): sum of vertex degrees in the induced subgraph
  (= 2 × sum of unordered edge weights), the paper's Eq. 1 numerator.
* ``avg_degree`` rho(S) = W(S)/|S|.
* ``affinity`` f(x) = x' D x with symmetric D.
* ``edge_density`` = W(S)/|S|^2 (equals f of the uniform embedding on S).
"""
from __future__ import annotations

from ..graph.local import LocalGraph


def total_degree(g: LocalGraph, S) -> float:
    """W(S): double-counted total edge weight of the induced subgraph."""
    return 2.0 * g.subgraph_weight(S)


def avg_degree(g: LocalGraph, S) -> float:
    """rho(S) = W(S)/|S| (0 for empty S)."""
    S = list(S)
    if not S:
        return 0.0
    return total_degree(g, S) / len(S)


def edge_density(g: LocalGraph, S) -> float:
    """W(S)/|S|^2 — the discrete version of graph affinity."""
    S = list(S)
    if not S:
        return 0.0
    return total_degree(g, S) / (len(S) ** 2)


def affinity(g: LocalGraph, x: dict) -> float:
    """f(x) = x' D x for a sparse embedding {index: value}."""
    f = 0.0
    for i, xi in x.items():
        if xi == 0.0:
            continue
        ai = g.adj[i]
        for j, xj in x.items():
            if j in ai:
                f += xi * xj * ai[j]
    return f


def non_positive_pair(g: LocalGraph, S):
    """First pair (u, v) of S, in S's order, with weight <= 0; else None."""
    S = list(S)
    for a in range(len(S)):
        ai = g.adj[S[a]]
        for b in range(a + 1, len(S)):
            if ai.get(S[b], 0.0) <= 0.0:
                return S[a], S[b]
    return None


def is_positive_clique(g: LocalGraph, S) -> bool:
    """True iff every pair in S is joined by a strictly positive edge."""
    return non_positive_pair(g, S) is None


def uniform_embedding(S) -> dict:
    """The uniform simplex embedding on S."""
    S = list(S)
    return {i: 1.0 / len(S) for i in S}
