"""The original SEA algorithm [18] as the paper's DCSGA baseline.

SEA runs the same Shrink-and-Expansion loop as SEACD
(:func:`repro.core.seacd.shrink_and_expand`) and differs in two places:

* Shrink uses replicator dynamics ``x_i <- x_i (Dx)_i / f(x)`` with the
  paper's *loose* convergence test ``|f - f_old| <= 1e-6``
  (Section VI-A), which may stop short of a local KKT point.
* Expansion (:func:`repro.core.expansion.expand`) compares gradients
  against lambda/2 taken, as in the original implementation, from the
  support gradients (their mean) instead of the exact ``f(x)``. The
  appendix formulas assume every supported vertex has gradient
  ``lambda = 2 f(x)``; when the replicator stops short, the estimate
  diverges from ``f(x)``, the step size is mis-computed, and the
  objective can *decrease* — the "#Errors in SEA" of Table VII. SEACD
  uses the exact ``f``, which is why it never errs.

Valid only on non-negative matrices (``G_D+``), which is how all DCSGA
algorithms are run in the paper.
"""
from __future__ import annotations

from ..graph.local import LocalGraph
from .cd import EPS, DenseGradient, apply_delta, objective
from .seacd import SEAStats, shrink_and_expand


def replicator_shrink(g: LocalGraph, x: dict, p: dict | DenseGradient,
                      max_iter: int = 2000) -> int:
    """Iterate the replicator dynamic on the current support; returns iters."""
    f = objective(x, p)
    it = 0
    while f > 0.0 and it < max_iter:
        it += 1
        new_x = {u: xu * p.get(u, 0.0) / f for u, xu in x.items()}
        x.clear()
        p.clear()
        for u, xu in new_x.items():
            if xu > EPS:
                apply_delta(g, x, p, u, xu)
        f_new = objective(x, p)
        if abs(f_new - f) <= 1e-6:  # the paper's loose test
            return it
        f = f_new
    return it


def _support_level(x: dict, p: dict | DenseGradient) -> float:
    """lambda/2 estimated as the mean support gradient.

    Equals f at a true local KKT point; biased when Shrink under-converged.
    """
    return sum(p.get(u, 0.0) for u in x) / len(x)


def sea(g: LocalGraph, start_vertex: int, max_outer: int = 100
        ) -> tuple[dict, dict, SEAStats]:
    """Original SEA from the e_u initialization; returns (x, p, stats)."""
    return shrink_and_expand(
        g, {start_vertex: 1.0},
        lambda x, p: replicator_shrink(g, x, p),
        level=_support_level, max_outer=max_outer,
    )
