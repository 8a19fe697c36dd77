"""EgoScan baseline substitute (Cadena et al., ICDM 2016 [6]).

EgoScan maximizes the *total* edge-weight difference ``W_D(S)`` over
vertex subsets of a signed difference graph. The authors' implementation
seeds candidate subgraphs from vertex ego nets and refines them with an
SDP relaxation + rounding; no SDP solver is available offline, so this
substitute keeps the identical objective and the ego-net seeding but
replaces the SDP with exhaustive local search, which is a natural exact
fixed point for this objective:

* add any outside vertex whose weighted degree into S is positive,
* drop any member whose weighted degree inside S is negative,

repeated until stable (each step strictly increases ``W_D(S)``, so the
search terminates; ``MAX_STEPS`` caps it regardless, and
``EgoScanResult.capped`` counts the searches that hit the cap). Seeds are
the top-25 vertices by positive degree. This reproduces the qualitative
behaviour reported in Tables VIII/IX: much larger subgraphs with much larger
``W_D(S)`` but far lower average-degree / edge-density difference than
the DCS algorithms, at a higher runtime than DCSGreedy.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graph.local import LocalGraph

# Add/drop steps after which one local search stops (and counts as capped).
MAX_STEPS = 200_000


@dataclass
class EgoScanResult:
    S: list
    total_weight: float  # W_D(S), double-counted convention
    n_edges: int
    capped: int = 0  # seeds whose local search stopped at MAX_STEPS


def _local_search(g: LocalGraph, seed_set: set) -> tuple[set, bool]:
    """The add/drop fixed point from ``seed_set``; returns (S, capped)."""
    S = set(seed_set)
    # deg[v] = weighted degree of v into S, maintained incrementally for
    # both members and the boundary.
    deg: dict = {}
    for u in S:
        for v, w in g.adj[u].items():
            deg[v] = deg.get(v, 0.0) + w
    for _ in range(MAX_STEPS):
        drop = None
        drop_val = -1e-12
        add = None
        add_val = 1e-12
        for v, d in deg.items():
            if v in S:
                if d < drop_val:
                    drop_val, drop = d, v
            elif d > add_val:
                add_val, add = d, v
        if drop is not None:
            S.discard(drop)
            for u, w in g.adj[drop].items():
                deg[u] = deg.get(u, 0.0) - w
        elif add is not None:
            S.add(add)
            for u, w in g.adj[add].items():
                deg[u] = deg.get(u, 0.0) + w
        else:
            return S, False
    return S, True


def egoscan(gd: LocalGraph) -> EgoScanResult:
    """Best subgraph by total weight over ego-net-seeded local searches."""
    pos_deg = {
        v: sum(w for w in gd.adj[v].values() if w > 0)
        for v in range(gd.n)
        if gd.adj[v]
    }
    seeds = sorted(pos_deg, key=pos_deg.__getitem__, reverse=True)[:25]
    best: set = set()
    best_w = 0.0
    capped = 0
    for s in seeds:
        ego = {s} | {v for v, w in gd.adj[s].items() if w > 0}
        S, hit_cap = _local_search(gd, ego)
        capped += hit_cap
        w = gd.subgraph_weight(S)
        if w > best_w:
            best_w, best = w, S
    n_edges = sum(
        1
        for i in best
        for j in gd.adj[i]
        if j in best and i < j
    )
    return EgoScanResult(sorted(best), 2.0 * best_w, n_edges, capped)
