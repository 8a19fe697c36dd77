"""DCSGreedy — the paper's Algorithm 2 for DCSAD.

Generates three candidate solutions — the maximum-weight edge (the
O(n)-approximation of Section IV-B), Greedy on ``G_D`` and Greedy on
``G_D+`` — picks the densest, refines a disconnected winner to its best
connected component (Property 1), and reports the data-dependent ratio
``2 * rho_{D+}(S2) / rho_D(S)`` of Theorem 2.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graph.local import LocalGraph
from .greedy import greedy_peel
from .kbounds import max_incident_weight
from .metrics import avg_degree


@dataclass
class DCSADResult:
    S: list  # internal indices
    rho: float  # rho_D(S), double-counted convention
    ratio: float  # data-dependent approximation ratio
    candidates: dict  # name -> (S, rho_D(S)) for diagnostics / Tables X & XII


def dcs_greedy(gd: LocalGraph) -> DCSADResult:
    """Run Algorithm 2 on a difference graph (internal-index LocalGraph)."""
    # The max-weight edge: the first vertex with the largest m_u, and its
    # first neighbour at that weight. That vertex is the smallest endpoint
    # of any heaviest edge, so its heaviest partners all lie above it.
    m = max_incident_weight(gd)
    w = max(m.values(), default=0.0)
    # Case 1: no positive edges — any single vertex is optimal (density 0).
    if w <= 0.0:
        return DCSADResult([0] if gd.n else [], 0.0, 1.0, {})
    i = next(u for u, mu in m.items() if mu == w)
    s_edge = [i, next(j for j, wj in gd.adj[i].items() if wj == w)]

    gdp = gd.positive_part()
    s1, _ = greedy_peel(gd)
    s2, _ = greedy_peel(gdp)

    candidates = {
        "max_edge": (s_edge, avg_degree(gd, s_edge)),
        "greedy_gd": (s1, avg_degree(gd, s1)),
        "greedy_gdplus": (s2, avg_degree(gd, s2)),
    }
    S, rho = max(candidates.values(), key=lambda c: c[1])

    comps = gd.connected_components_of(S)
    if len(comps) > 1:
        S = max(comps, key=lambda c: avg_degree(gd, c))
        rho = avg_degree(gd, S)

    # Theorem 2: rho_{D+}(S2) is a 2-approx of the max density in G_D+,
    # which upper-bounds the max density in G_D.
    rho2 = avg_degree(gdp, s2)
    ratio = (2.0 * rho2 / rho) if rho > 0 else float("inf")
    return DCSADResult(sorted(S), rho, ratio, candidates)

