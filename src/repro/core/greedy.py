"""Charikar's greedy peeling (the paper's Algorithm 1), exact driver version.

Repeatedly removes the vertex of minimum (weighted) degree in the current
induced subgraph and returns the prefix with maximum average degree
``W(S)/|S|`` (W double-counted, see DESIGN.md §1). Works unchanged on
graphs with negative edge weights — which is exactly how DCSGreedy uses
it on ``G_D`` — although the classic 2-approximation guarantee only holds
for non-negative weights.

Implementation: the degrees live in one numpy vector over a CSR copy of
the adjacency (``ptr``, ``nbr``, ``wts``, in adjacency order). Each
removal is one ``argmin`` over all n entries, so ties go to the lowest
index among equal degrees; the removed vertex's entry becomes +inf, which
stays +inf under every later subtraction, and one fancy-indexed
subtraction updates its neighbours. That is one C-level O(n) scan per
removal, ``O(n^2 + m)`` in all instead of the ``O((m + n) log n)`` of the
paper's segment tree; with n ≤ 8000 in every config the scans cost less
than a Python-level priority queue's per-edge pushes. Each surviving
degree receives the same IEEE subtractions, in the same order, as in a
per-edge Python loop, so S and rho are exact.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..graph.local import LocalGraph


def greedy_peel(g: LocalGraph) -> tuple[list, float]:
    """Run Algorithm 1 on ``g``.

    Returns ``(S, rho)`` where S is the internal-index set of the best
    prefix and rho its average degree W(S)/|S|. Ties keep the earlier
    (larger) prefix, matching the strict-improvement test in Algorithm 1.
    """
    n = g.n
    if not n:
        return [], 0.0
    deg = [0.0] * n
    total = 0.0  # sum of unordered edge weights
    for v in range(n):
        d = 0.0
        for u, w in g.adj[v].items():
            d += w
            if u < v:
                total += w
        deg[v] = d
    # CSR copy: v's neighbours are nbr[ptr[v]:ptr[v + 1]], weights in wts.
    ptr = list(accumulate(map(len, g.adj), initial=0))
    nbr = np.fromiter((u for a in g.adj for u in a), np.int64, ptr[-1])
    wts = np.fromiter((w for a in g.adj for w in a.values()), np.float64,
                      ptr[-1])
    key = np.array(deg)
    order = []  # removal order
    best_rho = 2.0 * total / n
    best_size = n
    for n_alive in range(n - 1, 0, -1):
        v = int(key.argmin())
        order.append(v)
        total -= key.item(v)
        key[v] = np.inf
        s, e = ptr[v], ptr[v + 1]
        key[nbr[s:e]] -= wts[s:e]
        rho = 2.0 * total / n_alive
        if rho > best_rho:
            best_rho = rho
            best_size = n_alive
    # The loop stops at one remaining vertex, whose density is 0 — the
    # optimum when every edge weight is negative (Section IV-B case 1).
    if 0.0 > best_rho:
        best_rho, best_size = 0.0, 1
    # The best prefix: all vertices minus the first removals.
    removed = set(order[: n - best_size])
    return [v for v in range(n) if v not in removed], best_rho
