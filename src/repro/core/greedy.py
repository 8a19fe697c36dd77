"""Charikar's greedy peeling (the paper's Algorithm 1), exact driver version.

Repeatedly removes the vertex of minimum (weighted) degree in the current
induced subgraph and returns the prefix with maximum average degree
``W(S)/|S|`` (W double-counted, see DESIGN.md §1). Works unchanged on
graphs with negative edge weights — which is exactly how DCSGreedy uses
it on ``G_D`` — although the classic 2-approximation guarantee only holds
for non-negative weights.

Implementation: lazy-deletion binary heap over (degree, vertex); each
removal updates neighbor degrees and pushes fresh heap entries, total
``O((m + n) log n)`` matching the paper's Section IV-B analysis (a heap
plays the role of their segment tree).
"""
from __future__ import annotations

import heapq

from ..graph.local import LocalGraph


def greedy_peel(g: LocalGraph) -> tuple[list, float]:
    """Run Algorithm 1 on ``g``.

    Returns ``(S, rho)`` where S is the internal-index set of the best
    prefix and rho its average degree W(S)/|S|. Ties keep the earlier
    (larger) prefix, matching the strict-improvement test in Algorithm 1.
    """
    alive = set(range(g.n))
    if not alive:
        return [], 0.0
    deg = {v: 0.0 for v in alive}
    total = 0.0  # sum of unordered edge weights
    for v in alive:
        for u, w in g.adj[v].items():
            deg[v] += w
            if u < v:
                total += w
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    order = []  # removal order
    n_alive = len(alive)
    best_rho = 2.0 * total / n_alive
    best_size = n_alive
    while n_alive > 1:
        while True:
            d, v = heapq.heappop(heap)
            # Lazy deletion: an entry is current iff it carries the exact
            # float value of the vertex's present degree (every degree
            # update pushes a fresh entry with that exact value).
            if v in alive and d == deg[v]:
                break
        alive.discard(v)
        order.append(v)
        total -= deg[v]
        n_alive -= 1
        for u, w in g.adj[v].items():
            if u in alive:
                deg[u] -= w
                heapq.heappush(heap, (deg[u], u))
        rho = 2.0 * total / n_alive
        if rho > best_rho:
            best_rho = rho
            best_size = n_alive
    # The loop stops at one remaining vertex, whose density is 0 — the
    # optimum when every edge weight is negative (Section IV-B case 1).
    if 0.0 > best_rho:
        best_rho, best_size = 0.0, 1
    # Reconstruct the best prefix: all vertices minus the first removals.
    S = sorted(set(range(g.n)).difference(order[: g.n - best_size]))
    return S, best_rho
