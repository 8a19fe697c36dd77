"""Shared test utilities: small graph builders and brute-force oracles."""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.graph.local import LocalGraph, from_edge_pandas


def graph_from_triples(triples, n=None) -> LocalGraph:
    """LocalGraph from [(u, v, w), ...]."""
    pdf = pd.DataFrame(triples, columns=["src", "dst", "weight"])
    return from_edge_pandas(pdf, n_vertices=n)


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
