"""Smart-initialization upper bounds ``mu_u`` (paper Section V-D).

``mu_u = tau_u * w_u / (tau_u + 1)`` upper-bounds the affinity of any
positive-clique embedding whose support contains ``u`` (Theorem 6 with
``k_u <= tau_u + 1``). Both terms are computed exactly on the driver's
``G_D+``:

* ``tau_u`` — the core number of ``u``, by bucket peeling;
* ``w_u`` — the max weight over edges with at least one endpoint in the
  closed ego net ``T_u = {u} ∪ N(u)``, i.e. ``max(m_u, max_{v in N(u)} m_v)``
  with ``m_v`` the max incident weight of ``v`` (:func:`max_incident_weight`).

``m_u`` itself is not a bound on uniform embeddings, so it stays out of
``mu_u``. NewSEA caps ``mu_u`` with it, because it does bound the f of any
KKT point whose support holds ``u`` (see :mod:`repro.core.newsea`).
"""
from __future__ import annotations

from ..graph.local import LocalGraph


def core_numbers_exact(g: LocalGraph) -> dict:
    """Exact core numbers by bucket peeling; {internal index: core}."""
    deg = {i: len(g.adj[i]) for i in range(g.n) if g.adj[i]}
    if not deg:
        return {}
    max_deg = max(deg.values())
    buckets: list = [set() for _ in range(max_deg + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    core: dict = {}
    cur = dict(deg)
    for d in range(max_deg + 1):
        while buckets[d]:
            # cur[v] == d: a demotion never takes a vertex below the
            # bucket being drained, and a peeled vertex is never re-added
            # (its cur is at most that of every later pop).
            v = buckets[d].pop()
            core[v] = d
            for u in g.adj[v]:
                if cur[u] > d:
                    buckets[cur[u]].discard(u)
                    cur[u] -= 1
                    buckets[cur[u]].add(u)
    return core


def max_incident_weight(g: LocalGraph) -> dict:
    """{index: m_u}, u's largest incident weight, for non-isolated u."""
    return {i: max(g.adj[i].values()) for i in range(g.n) if g.adj[i]}


def egonet_max_weight_local(g: LocalGraph, m: dict | None = None) -> dict:
    """{index: w_u} for every non-isolated vertex of a positive graph.

    ``m`` is :func:`max_incident_weight` of ``g``, if already computed.
    """
    if m is None:
        m = max_incident_weight(g)
    out = {}
    for i, mi in m.items():
        w = mi
        for j in g.adj[i]:
            if m.get(j, 0.0) > w:
                w = m[j]
        out[i] = w
    return out


def smart_init_bounds_local(gdp: LocalGraph, m: dict | None = None) -> dict:
    """{internal index: mu_u} for every non-isolated vertex of G_D+.

    ``m`` is :func:`max_incident_weight` of ``gdp``, if already computed.
    """
    tau = core_numbers_exact(gdp)
    w = egonet_max_weight_local(gdp, m)
    return {
        u: tau[u] * w[u] / (tau[u] + 1.0) for u in tau if u in w
    }
