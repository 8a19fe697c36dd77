"""The SEA Expansion operation (paper Appendix A), shared by SEACD and SEA.

Given (x, p) at (approximately) a local KKT point, the candidate set is
``Z = {i : (Dx)_i > level}`` among vertices outside the support, and the
update moves along ``b_i = -x_i s (i in S)``, ``b_i = gamma_i (i in Z)``
with ``gamma_i = (Dx)_i - level`` and the analytically optimal step
``tau* = zeta / a`` clipped to ``1/s`` where
``a = level s^2 + 2 s zeta - omega`` (the paper's ``-1/a`` is a typo;
maximizing ``2 zeta tau - a tau^2`` gives ``zeta / a``). The result stays
on the simplex by construction.

``level`` is the value lambda/2 the formulas assume every supported
gradient equals. SEACD passes the exact ``f = x' D x``
(the appendix's ``grad_i f - f`` equals ``(Dx)_i - f`` up to the shared
factor of 2). The original SEA passes lambda/2 estimated from the
support gradients; that estimate is exact only at a true local KKT point.
"""
from __future__ import annotations

from ..graph.local import LocalGraph
from .cd import apply_delta


def expansion_candidates(g: LocalGraph, x: dict, p: dict, level: float
                         ) -> list:
    """Z = vertices outside the support with (Dx)_i > level + 1e-9."""
    return [
        i
        for i, pi in p.items()
        if pi > level + 1e-9 and x.get(i, 0.0) <= 0.0
    ]


def expand(g: LocalGraph, x: dict, p: dict, Z: list, level: float) -> None:
    """Apply one SEA Expansion step in place; no-op unless sum(gamma) > 0."""
    gamma = {i: p.get(i, 0.0) - level for i in Z}
    s = sum(gamma.values())
    if s <= 0.0:
        return
    zeta = sum(v * v for v in gamma.values())
    omega = 0.0
    zset = set(Z)
    for i in Z:
        gi = gamma[i]
        for j, w in g.adj[i].items():
            if j in zset:
                omega += gi * gamma[j] * w
    a = level * s * s + 2.0 * s * zeta - omega
    if a <= 0.0:
        tau = 1.0 / s
    else:
        tau = min(1.0 / s, zeta / a)

    deltas = {}
    scale = 1.0 - tau * s
    for u, xu in list(x.items()):
        deltas[u] = xu * scale - xu
    for i in Z:
        deltas[i] = deltas.get(i, 0.0) + tau * gamma[i]
    for u, d in deltas.items():
        apply_delta(g, x, p, u, d)
