"""2-Coordinate Descent to a local KKT point (paper Section V-B).

State is kept sparse: ``x`` maps internal vertex index -> simplex value,
and ``p`` holds (D x)_i for every vertex with a supported neighbor
(the gradient is ``2 p``). ``p`` has two stores, picked per graph by
:attr:`repro.graph.local.LocalGraph.rows`:

* a dict ``{index: (Dx)_i}``, updated one neighbour at a time, on graphs
  whose edge-weighted mean degree ``sum_u d_u^2 / sum_u d_u`` is below
  32 (DBLP, DBLP-C, test-scale wiki, most Douban configs);
* a :class:`DenseGradient`, a numpy vector updated one adjacency row at a
  time, from 32 up (DM, actor, bench-scale wiki, the densest Douban
  config). The measured crossover is tabled in :mod:`repro.graph.local`.

Both give bit-identical results: every entry receives the same IEEE
products in the same order, Expansion's candidates come in index order,
sums over the support run left to right, and the ``local_kkt`` scan
breaks ties toward the first vertex of ``S`` in both.
Refinement and SEA read ``p`` only through ``get`` and ``clear``. Each
iteration picks
``i = argmax_{k in S, x_k < 1} p_k`` and ``j = argmin_{k in S, x_k > 0} p_k``,
solves the one-variable quadratic of Eq. 9 analytically, and updates
``x`` and ``p`` incrementally in ``O(|S| + deg(i) + deg(j))``.

Convergence follows the paper's experimental setting:
``max grad - min grad <= 1e-2 / |S|`` (Section VI-A).
"""
from __future__ import annotations

import numpy as np

from ..graph.local import LocalGraph

EPS = 1e-12


class DenseGradient:
    """p = D x of graph ``g`` as a dense vector; ``g.rows`` is not None.

    ``vals[j]`` is (Dx)_j, exactly 0.0 where no applied row reaches j.
    """

    __slots__ = ("row", "vals")

    def __init__(self, g: LocalGraph) -> None:
        self.row = g.row
        self.vals = np.zeros(g.n)

    def add_row(self, i: int, delta: float) -> None:
        """p += delta * D[i, :]."""
        idx, w = self.row(i)
        self.vals[idx] += delta * w

    def above(self, t: float) -> list:
        """Indices i with (Dx)_i > t, ascending. Expansion's t is positive
        (its level is never negative on G_D+), so no unreached i is listed."""
        return np.flatnonzero(self.vals > t).tolist()

    def get(self, i: int, default: float = 0.0) -> float:
        """(Dx)_i; an unreached entry holds 0.0, every caller's ``default``."""
        return self.vals.item(i)

    def clear(self) -> None:
        self.vals.fill(0.0)


def apply_delta(g: LocalGraph, x: dict, p: dict | DenseGradient, i: int,
                delta: float) -> None:
    """x_i += delta, maintaining p = D x for all neighbors of i."""
    if delta == 0.0:
        return
    x[i] = x.get(i, 0.0) + delta
    if x[i] < EPS:
        x.pop(i, None)
    if isinstance(p, dict):
        for j, w in g.adj[i].items():
            p[j] = p.get(j, 0.0) + delta * w
    else:
        p.add_row(i, delta)


def objective(x: dict, p: dict | DenseGradient) -> float:
    """f(x) = x' D x = sum_u x_u (D x)_u."""
    return sum(v * p.get(u, 0.0) for u, v in x.items())


def init_state(g: LocalGraph, x0: dict) -> tuple[dict, dict | DenseGradient]:
    """Build (x, p) from a sparse initial embedding, in ``g``'s store."""
    x: dict = {}
    p = {} if g.rows is None else DenseGradient(g)
    for u, v in x0.items():
        apply_delta(g, x, p, u, v)
    return x, p


def solve_pair(g: LocalGraph, x: dict, p: dict | DenseGradient, i: int,
               j: int) -> float:
    """Optimally redistribute mass between x_i and x_j (Eq. 9).

    Returns the signed change applied to x_i (x_j changes by the negative).
    """
    xi = x.get(i, 0.0)
    xj = x.get(j, 0.0)
    c = xi + xj
    d = g.adj[i].get(j, 0.0)
    bi = p.get(i, 0.0) - d * xj
    bj = p.get(j, 0.0) - d * xi

    if d == 0.0:
        if bi > bj:
            new_xi = c
        elif bi < bj:
            new_xi = 0.0
        else:
            return 0.0
    else:
        # g(xi) = -d*xi^2 + B*xi + const with B = d*c + bi - bj.
        b = d * c + bi - bj

        def val(t: float) -> float:
            return -d * t * t + b * t

        cands = [0.0, c]
        r = b / (2.0 * d)
        if 0.0 <= r <= c:
            cands.append(r)
        new_xi = max(cands, key=val)

    delta = new_xi - xi
    if abs(delta) < EPS:
        return 0.0
    apply_delta(g, x, p, i, delta)
    apply_delta(g, x, p, j, -delta)
    return delta


def local_kkt(g: LocalGraph, x: dict, p: dict | DenseGradient, S,
              tol: float | None = None, max_iter: int = 200_000) -> int:
    """Drive (x, p) to a local KKT point on vertex set S; returns #iterations.

    Vertices outside S are never touched (their x stays 0), matching
    Eq. 10. ``tol`` defaults to the paper's 1e-2/|S| on the gradient gap.
    """
    S = list(S)
    if len(S) <= 1:
        return 0
    if tol is None:
        tol = 1e-2 / len(S)
    if not isinstance(p, dict):
        return _local_kkt_dense(g, x, p, S, tol, max_iter)
    it = 0
    while it < max_iter:
        it += 1
        i_best = None
        i_val = -float("inf")
        j_best = None
        j_val = float("inf")
        for k in S:
            pk = p.get(k, 0.0)
            xk = x.get(k, 0.0)
            if xk < 1.0 and pk > i_val:
                i_val, i_best = pk, k
            if xk > 0.0 and pk < j_val:
                j_val, j_best = pk, k
        if i_best is None or j_best is None:
            break
        # gradient = 2p, so the gap condition is 2*(i_val - j_val) <= tol.
        if 2.0 * (i_val - j_val) <= tol or i_best == j_best:
            break
        if solve_pair(g, x, p, i_best, j_best) == 0.0:
            break  # no improving move despite gap: numerically stalled
    return it


def _local_kkt_dense(g: LocalGraph, x: dict, p: DenseGradient, S: list,
                     tol: float, max_iter: int) -> int:
    """:func:`local_kkt`'s loop on the dense store.

    ``argmax``/``argmin`` return the first extreme position, as the dict
    scan's strict ``>``/``<`` do. ``xs`` mirrors x on S; a step moves only
    x_i and x_j, so only their two positions are refreshed.
    """
    idx = np.array(S, dtype=np.int64)
    vals = p.vals
    xs = np.array([x.get(k, 0.0) for k in S])
    inf = float("inf")
    it = 0
    while it < max_iter:
        it += 1
        ps = vals[idx]
        hi = np.where(xs < 1.0, ps, -inf)
        lo = np.where(xs > 0.0, ps, inf)
        a = int(hi.argmax())
        b = int(lo.argmin())
        i_val = hi.item(a)
        j_val = lo.item(b)
        if i_val == -inf or j_val == inf:
            break
        i_best, j_best = S[a], S[b]
        if 2.0 * (i_val - j_val) <= tol or i_best == j_best:
            break
        if solve_pair(g, x, p, i_best, j_best) == 0.0:
            break
        xs[a] = x.get(i_best, 0.0)
        xs[b] = x.get(j_best, 0.0)
    return it
