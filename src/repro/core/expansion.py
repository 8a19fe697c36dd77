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

Both functions work on either gradient store of :mod:`repro.core.cd`
through ``p.get`` and ``apply_delta`` and give bit-identical results on
both; Z, a set in the paper, is listed in ascending index order on both.
The candidate scan asks the dense store for its entries above the level,
and on graphs with row arrays (:attr:`repro.graph.local.LocalGraph.rows`)
omega is summed over them rather than over the adjacency dicts.
"""
from __future__ import annotations

import numpy as np

from ..graph.local import LocalGraph
from .cd import DenseGradient, apply_delta


def expansion_candidates(x: dict, p: dict | DenseGradient,
                         level: float) -> list:
    """Z = vertices outside the support with (Dx)_i > level + 1e-9."""
    if not isinstance(p, dict):
        return [i for i in p.above(level + 1e-9) if x.get(i, 0.0) <= 0.0]
    return sorted(
        i
        for i, pi in p.items()
        if pi > level + 1e-9 and x.get(i, 0.0) <= 0.0
    )


def _omega_rows(g: LocalGraph, Z: list, gz: list) -> float:
    """omega = sum_{i, j in Z} gamma_i gamma_j D_ij over ``g.row`` arrays.

    The same products as the adjacency-dict loop of :func:`expand`, in the
    same order (``g.row(i)`` follows ``adj[i]``), and ``np.cumsum`` adds
    them left to right as that loop's ``omega +=`` does. Neighbours off Z
    add a zero term (gamma 0.0), which leaves the sum unchanged. On the DM
    graphs (|Z| about 40, degrees 56-70) it takes 0.4 of the loop's time.
    """
    rows = [g.row(i) for i in Z]
    gamma = np.zeros(g.n)
    gamma[Z] = gz
    idx = np.concatenate([r[0] for r in rows])
    w = np.concatenate([r[1] for r in rows])
    gi = np.repeat(gz, [r[0].size for r in rows])
    terms = gi * gamma[idx] * w
    return np.cumsum(np.concatenate(([0.0], terms))).item(-1)


def expand(g: LocalGraph, x: dict, p: dict | DenseGradient, Z: list,
           level: float) -> None:
    """Apply one SEA Expansion step in place; no-op unless sum(gamma) > 0."""
    gamma = {i: p.get(i, 0.0) - level for i in Z}
    s = sum(gamma.values())
    if s <= 0.0:
        return
    zeta = sum(v * v for v in gamma.values())
    if g.rows is None:
        omega = 0.0
        zset = set(Z)
        for i in Z:
            gi = gamma[i]
            for j, w in g.adj[i].items():
                if j in zset:
                    omega += gi * gamma[j] * w
    else:
        omega = _omega_rows(g, Z, list(gamma.values()))
    a = level * s * s + 2.0 * s * zeta - omega
    if a <= 0.0:
        tau = 1.0 / s
    else:
        tau = min(1.0 / s, zeta / a)

    # Z lies outside the support, so each vertex moves once: the support
    # by x_u * (1 - tau s) - x_u, then Z by tau * gamma_i.
    scale = 1.0 - tau * s
    for u, xu in list(x.items()):
        apply_delta(g, x, p, u, xu * scale - xu)
    for i in Z:
        apply_delta(g, x, p, i, tau * gamma[i])
