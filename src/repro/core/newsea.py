"""DCSGA solvers: NewSEA (Algorithm 5) and the full-initialization runners.

All three run on ``G_D+`` (Theorem 5 guarantees an optimal positive-clique
solution exists there):

* :func:`newsea` — smart initialization: per-vertex upper bounds
  ``mu_u = tau_u * w_u / (tau_u + 1)`` (Theorem 6 + core-number bound),
  vertices tried in descending ``mu`` order, early exit when
  ``mu_u <= f(best)``.
* :func:`seacd_refine_full` — SEACD+Refine from every vertex (the paper's
  "SEACD+Refine" baseline); also returns every distinct positive clique
  found, which Tables V/VI/Fig. 3 consume.
* :func:`sea_refine_full` — original SEA+Refine from every vertex, with
  the Table VII expansion-error count.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graph.local import LocalGraph
from .cd import objective
from .kbounds import smart_init_bounds_local
from .refine import refine
from .sea import sea
from .seacd import seacd


@dataclass
class DCSGAResult:
    x: dict  # sparse embedding, internal indices
    f: float  # affinity difference f_D(x) = x' D x
    inits: int  # number of initializations actually run
    expansion_errors: int = 0
    cliques: list | None = None  # [(frozenset support, f, x)] for full runs


def _run_one(gdp: LocalGraph, u: int, use_sea: bool):
    if use_sea:
        x, p, stats = sea(gdp, u)
    else:
        x, p, stats = seacd(gdp, start_vertex=u)
    refine(gdp, x, p)
    return x, objective(x, p), stats


def newsea(gdp: LocalGraph) -> DCSGAResult:
    """Algorithm 5 on the positive part of the difference graph.

    The bounds come from :func:`repro.core.kbounds.smart_init_bounds_local`.
    """
    mu = smart_init_bounds_local(gdp)
    order = sorted(mu, key=mu.__getitem__, reverse=True)
    best_x: dict = {}
    best_f = 0.0
    inits = 0
    errors = 0
    for u in order:
        if mu[u] <= best_f:
            break
        inits += 1
        x, f, stats = _run_one(gdp, u, use_sea=False)
        errors += stats.expansion_errors
        if f > best_f:
            best_f, best_x = f, x
    if not best_x and gdp.n:
        best_x = {0: 1.0}
    return DCSGAResult(best_x, best_f, inits, errors)


def _full_init(gdp: LocalGraph, use_sea: bool) -> DCSGAResult:
    best_x: dict = {}
    best_f = 0.0
    inits = 0
    errors = 0
    cliques: dict = {}
    for u in range(gdp.n):
        if not gdp.adj[u]:
            continue  # e_u is already a KKT point with f = 0
        inits += 1
        x, f, stats = _run_one(gdp, u, use_sea=use_sea)
        errors += stats.expansion_errors
        key = frozenset(x.keys())
        if key and (key not in cliques or f > cliques[key][0]):
            cliques[key] = (f, x)
        if f > best_f:
            best_f, best_x = f, x
    if not best_x and gdp.n:
        best_x = {0: 1.0}
    out = [(k, f, x) for k, (f, x) in cliques.items()]
    out.sort(key=lambda t: -t[1])
    return DCSGAResult(best_x, best_f, inits, errors, out)


def seacd_refine_full(gdp: LocalGraph) -> DCSGAResult:
    """SEACD+Refine initialized at every non-isolated vertex."""
    return _full_init(gdp, use_sea=False)


def sea_refine_full(gdp: LocalGraph) -> DCSGAResult:
    """Original SEA+Refine initialized at every non-isolated vertex."""
    return _full_init(gdp, use_sea=True)


def dedup_cliques(cliques: list) -> list:
    """Drop cliques that are subsets of other found cliques (Section VI-C)."""
    kept: list = []
    for key, f, x in cliques:  # already sorted by f desc
        if any(key <= other for other, _, _ in kept):
            continue
        # Remove previously kept cliques subsumed by this one.
        kept = [(k2, f2, x2) for k2, f2, x2 in kept if not k2 <= key] + [
            (key, f, x)
        ]
    kept.sort(key=lambda t: -t[1])
    return kept
