"""DCSGA solvers: NewSEA (Algorithm 5) and the full-initialization runners.

All three run on ``G_D+`` (Theorem 5 guarantees an optimal positive-clique
solution exists there):

* :func:`newsea` — smart initialization: per-vertex upper bounds
  ``b_u = min(mu_u, m_u)``, with ``mu_u = tau_u * w_u / (tau_u + 1)``
  (Theorem 6 + core-number bound) and ``m_u`` u's largest incident weight;
  vertices tried in descending ``b`` order, early exit when
  ``b_u <= f(best)``; the best embedding is then polished to a tight KKT
  point on its support.
* :func:`seacd_refine_full` — SEACD+Refine from every vertex (the paper's
  "SEACD+Refine" baseline); also returns every distinct positive clique
  found, which Tables V/VI/Fig. 3 consume.
* :func:`sea_refine_full` — original SEA+Refine from every vertex, with
  the Table VII expansion-error count.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graph.local import LocalGraph
from .cd import init_state, local_kkt, objective
from .kbounds import max_incident_weight, smart_init_bounds_local
from .refine import refine
from .sea import sea
from .seacd import seacd


@dataclass
class DCSGAResult:
    x: dict  # sparse embedding, internal indices
    f: float  # affinity difference f_D(x) = x' D x
    inits: int  # number of initializations actually run
    expansion_errors: int = 0
    cliques: list | None = None  # [(frozenset support, f, x)], best f first
    # Starts whose Shrink-and-Expansion loop stopped with Z non-empty
    # (stagnation guard or round cap), i.e. short of a global KKT point.
    unconverged: int = 0


def _multi_start(gdp: LocalGraph, order, start,
                 bound: dict | None = None) -> DCSGAResult:
    """``start`` (SEACD or SEA) + Refine from each start vertex in ``order``.

    ``start(gdp, u)`` returns (x, p, stats). Callers read ``start`` at call
    time, as this loop reads ``refine``, so patched solvers are used. With
    ``bound``, stops at the first start whose bound ``bound[u]`` cannot
    beat the best f found. Collects every distinct positive clique found,
    and counts the starts whose loop did not stop on an empty Z.
    """
    best_x: dict = {}
    best_f = 0.0
    inits = 0
    errors = 0
    unconverged = 0
    cliques: dict = {}
    for u in order:
        if bound is not None and bound[u] <= best_f:
            break
        inits += 1
        x, p, stats = start(gdp, u)
        refine(gdp, x, p)
        f = objective(x, p)
        errors += stats.expansion_errors
        unconverged += stats.stop != "empty_z"
        key = frozenset(x.keys())
        if key and (key not in cliques or f > cliques[key][0]):
            cliques[key] = (f, x)
        if f > best_f:
            best_f, best_x = f, x
    if not best_x and gdp.n:
        best_x = {0: 1.0}
    out = [(k, f, x) for k, (f, x) in cliques.items()]
    out.sort(key=lambda t: -t[1])
    return DCSGAResult(best_x, best_f, inits, errors, out, unconverged)


def newsea(gdp: LocalGraph) -> DCSGAResult:
    """Algorithm 5 on the positive part of the difference graph.

    Each start u is bounded by ``min(mu_u, m_u)``: ``mu_u`` from
    :func:`repro.core.kbounds.smart_init_bounds_local`, ``m_u`` u's largest
    incident weight. ``m_u`` is valid for the KKT points the starts reach:
    at one whose support holds u, ``f = (Dx)_u = sum_{v != u} D_uv x_v
    <= m_u (1 - x_u) <= m_u``.

    The loop stops SEACD at the paper's loose 1e-2/|S| gap, so with fewer
    starts the best clique may be reached from a start that leaves f a
    little below the clique's optimum. One final 2-CD pass on the best
    support, at a gap of 1e-12 times the largest weight, closes that.
    """
    m = max_incident_weight(gdp)
    mu = smart_init_bounds_local(gdp, m)
    # A conditional, not min(): this runs once per vertex, and a call to
    # min() doubles its cost.
    bound = {u: mu_u if mu_u < m[u] else m[u] for u, mu_u in mu.items()}
    order = sorted(bound, key=bound.__getitem__, reverse=True)
    res = _multi_start(gdp, order, seacd, bound=bound)
    x, p = init_state(gdp, res.x)
    local_kkt(gdp, x, p, sorted(x), tol=1e-12 * max(m.values(), default=1.0))
    res.x, res.f = x, objective(x, p)
    return res


def seacd_refine_full(gdp: LocalGraph) -> DCSGAResult:
    """SEACD+Refine initialized at every non-isolated vertex.

    (At an isolated vertex u, e_u is already a KKT point with f = 0.)
    """
    return _multi_start(gdp, [u for u in range(gdp.n) if gdp.adj[u]], seacd)


def sea_refine_full(gdp: LocalGraph) -> DCSGAResult:
    """Original SEA+Refine initialized at every non-isolated vertex."""
    return _multi_start(gdp, [u for u in range(gdp.n) if gdp.adj[u]], sea)


def dedup_cliques(cliques: list) -> list:
    """Drop cliques that are subsets of other found cliques (Section VI-C).

    ``cliques`` is sorted by f descending and its supports are non-empty.
    A clique is skipped when a kept one contains it, and it replaces the
    kept ones it contains. ``at`` maps each vertex to the kept supports
    through it: a superset must pass through the support's rarest vertex,
    and a subset shares a vertex with it.
    """
    kept: dict = {}  # support -> (support, f, x), in the order kept
    at: dict = {}  # vertex -> kept supports containing it
    for key, f, x in cliques:
        rarest = min(key, key=lambda v: len(at.get(v, ())))
        if any(key <= other for other in at.get(rarest, ())):
            continue
        inside = {k2 for v in key for k2 in at.get(v, ()) if k2 <= key}
        for k2 in inside:
            del kept[k2]
            for v in k2:
                at[v].discard(k2)
        kept[key] = (key, f, x)
        for v in key:
            at.setdefault(v, set()).add(key)
    out = list(kept.values())
    out.sort(key=lambda t: -t[1])
    return out
