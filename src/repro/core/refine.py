"""Refinement of a KKT point to a positive-clique solution (Algorithm 4).

Runs on ``G_D+``: while the support's induced subgraph is not a clique,
pick a non-adjacent pair (u, v) — on ``G_D+`` the same test as weight
<= 0, so :func:`repro.core.metrics.non_positive_pair` finds it — merge
the mass of the lower-gradient vertex into the other (which cannot
decrease f at a KKT point, per the proof of Theorem 5), and re-descend
to a local KKT point on the shrunken support. The support strictly
shrinks each round, so termination is guaranteed; the result induces a
clique in G_D+, i.e. a positive clique in G_D.
"""
from __future__ import annotations

from ..graph.local import LocalGraph
from .cd import DenseGradient, apply_delta, local_kkt
from .metrics import non_positive_pair


def refine(g_plus: LocalGraph, x: dict, p: dict | DenseGradient) -> None:
    """Refine (x, p) in place to a positive-clique solution on G_D+."""
    while True:
        S = sorted(x.keys())
        pair = non_positive_pair(g_plus, S)
        if pair is None:
            return
        u, v = pair
        # Transfer into the endpoint with the larger gradient so the
        # objective change 2*delta*(p_u - p_v) is non-negative even when
        # the KKT point is only approximate.
        if p.get(u, 0.0) < p.get(v, 0.0):
            u, v = v, u
        delta = x[v]
        apply_delta(g_plus, x, p, u, delta)
        apply_delta(g_plus, x, p, v, -delta)  # x_v reaches 0.0 and is popped
        local_kkt(g_plus, x, p, sorted(x.keys()))
