"""Shared test utilities: small graph builders and brute-force oracles."""
from __future__ import annotations

import heapq
import itertools

import numpy as np
import pandas as pd

from repro.graph.local import LocalGraph, from_edge_pandas
from repro.graphgen.background import chung_lu_pairs
from repro.graphgen.bigco import DBLPC_PLANTED


def graph_from_triples(triples, n=None) -> LocalGraph:
    """LocalGraph from [(u, v, w), ...] over integer ids.

    With ``n``, the vertices are ``0..n-1``, isolated ones included, and
    each vertex's index is its id.
    """
    g = from_edge_pandas(pd.DataFrame(triples,
                                      columns=["src", "dst", "weight"]))
    if n is None:
        return g
    # The sorted endpoint ids map to their own values in order, so every
    # adjacency dict keeps its ascending order.
    adj: list = [{} for _ in range(n)]
    for i, a in enumerate(g.adj):
        adj[g.ids[i]] = {g.ids[j]: w for j, w in a.items()}
    return LocalGraph(list(range(n)), adj)


def random_signed_graph(n: int, p: float, seed: int, w_lo=-3.0, w_hi=5.0
                        ) -> LocalGraph:
    """Erdos-Renyi with uniform signed weights (never exactly 0)."""
    g = np.random.default_rng(seed)
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if g.random() < p:
                w = 0.0
                while w == 0.0:
                    w = g.uniform(w_lo, w_hi)
                triples.append((i, j, w))
    return graph_from_triples(triples, n=n)


def random_positive_graph(n: int, p: float, seed: int, w_hi=5.0) -> LocalGraph:
    return random_signed_graph(n, p, seed, w_lo=0.2, w_hi=w_hi)


def brute_force_core_numbers(g: LocalGraph) -> dict:
    """{u: largest k with u in the k-core} for every non-isolated u.

    The k-core is what remains after repeatedly deleting vertices of
    degree < k.
    """
    out = {}
    for k in range(1, g.n):
        alive = set(range(g.n))
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if sum(1 for j in g.adj[v] if j in alive) < k:
                    alive.discard(v)
                    changed = True
        if not alive:
            break
        for v in alive:
            out[v] = k
    return out


def brute_force_egonet_max_weight(g: LocalGraph) -> dict:
    """{u: max weight over edges touching T_u = {u} ∪ N(u)}, u non-isolated."""
    edges = [(i, j, w) for i in range(g.n) for j, w in g.adj[i].items()]
    out = {}
    for u in range(g.n):
        if not g.adj[u]:
            continue
        T = {u, *g.adj[u]}
        out[u] = max(w for i, j, w in edges if i in T or j in T)
    return out


def brute_force_densest(g: LocalGraph):
    """Max of rho(S) = 2*W(S)/|S| over all non-empty subsets (n <= ~14)."""
    best_rho, best_S = -float("inf"), None
    verts = list(range(g.n))
    for r in range(1, g.n + 1):
        for S in itertools.combinations(verts, r):
            rho = 2.0 * g.subgraph_weight(S) / len(S)
            if rho > best_rho:
                best_rho, best_S = rho, list(S)
    return best_S, best_rho


def brute_force_max_total(g: LocalGraph):
    """Max of W(S) (unordered sum) over all subsets; returns (S, W)."""
    best_w, best_S = 0.0, []
    verts = list(range(g.n))
    for r in range(1, g.n + 1):
        for S in itertools.combinations(verts, r):
            w = g.subgraph_weight(S)
            if w > best_w:
                best_w, best_S = w, list(S)
    return best_S, best_w


def uniform_embedding(S) -> dict:
    """The uniform simplex embedding on S."""
    S = list(S)
    return {i: 1.0 / len(S) for i in S}


def all_cliques_max_affinity_unweighted(g: LocalGraph) -> float:
    """Motzkin-Straus optimum 1 - 1/omega for a 0/1-weight graph."""
    omega = 1
    verts = list(range(g.n))
    for r in range(2, g.n + 1):
        found = False
        for S in itertools.combinations(verts, r):
            ok = all(
                g.adj[a].get(b, 0.0) > 0 for a, b in itertools.combinations(S, 2)
            )
            if ok:
                found = True
                break
        if found:
            omega = r
        else:
            break
    return 1.0 - 1.0 / omega, omega


def dedup_cliques_reference(cliques: list) -> list:
    """The O(k^2) clique dedup that ``newsea.dedup_cliques`` must equal.

    Scans every kept clique for a superset of each new one, then drops the
    kept cliques the new one contains.
    """
    kept: list = []
    for key, f, x in cliques:  # already sorted by f desc
        if any(key <= other for other, _, _ in kept):
            continue
        kept = [(k2, f2, x2) for k2, f2, x2 in kept if not k2 <= key] + [
            (key, f, x)
        ]
    kept.sort(key=lambda t: -t[1])
    return kept


def greedy_peel_reference(g: LocalGraph) -> tuple[list, float]:
    """The lazy-heap Charikar peel that ``greedy.greedy_peel`` must equal.

    Pops (degree, vertex) from a binary heap, so ties go to the lowest
    index, and pushes a fresh entry for every neighbour of a removed
    vertex; an entry is current iff it carries the vertex's present degree.
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
    if 0.0 > best_rho:
        best_rho, best_size = 0.0, 1
    S = sorted(set(range(g.n)).difference(order[: g.n - best_size]))
    return S, best_rho


def with_store(g: LocalGraph, dense: bool) -> LocalGraph:
    """A fresh copy of ``g`` with its gradient store forced.

    ``rows`` is a cached property, so setting it overrides the selector:
    unbuilt rows give the dense store, None the dict store.
    """
    out = LocalGraph(g.ids, g.adj)
    out.rows = [None] * g.n if dense else None
    return out


def dblpc_events_reference(n: int, bg_pairs: int, seed: int = 19
                           ) -> pd.DataFrame:
    """Papers per (pair, era) that ``bigco.dblpc_events`` must equal,
    sorted by (src, dst, era).

    Draws one timestamp per paper, pair by pair, with the planted pairs'
    papers drawn inside their era, and counts the papers of each era
    (t < 0.5 is era 1).
    """
    g = np.random.default_rng(seed)
    bg = chung_lu_pairs(n - 40, bg_pairs, seed=seed, id_offset=40)
    c = 1 + g.poisson(1.0, len(bg))
    rows = []
    for (s, d), k in zip(bg.itertuples(index=False), c):
        for t in g.uniform(0.0, 1.0, k):
            rows.append((s, d, float(t)))

    def planted_pair(u, v, n1, n2):
        for t in g.uniform(0.0, 0.5, n1):
            rows.append((u, v, float(t)))
        for t in g.uniform(0.5, 1.0, n2):
            rows.append((u, v, float(t)))

    planted_pair(0, 1, 5, 405)
    planted_pair(2, 3, 188, 2)
    cq = DBLPC_PLANTED["disc-clique"]
    for i in range(len(cq)):
        for j in range(i + 1, len(cq)):
            planted_pair(cq[i], cq[j], 1, 7)
    papers = pd.DataFrame(rows, columns=["src", "dst", "t"])
    papers["era"] = np.where(papers["t"] >= 0.5, 2, 1)
    return (papers.groupby(["src", "dst", "era"]).size().rename("papers")
            .reset_index())
