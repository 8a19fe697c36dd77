"""SEACD — Coordinate-Descent Shrink-and-Expansion (paper Algorithm 3).

Shrink: 2-coordinate descent to a local KKT point on the current support
set. Expand: add all vertices whose gradient exceeds ``lambda = 2 f(x)``
and move along the SEA expansion direction. Terminates (a global KKT
point, Theorem 4) when the candidate set Z is empty.

:func:`shrink_and_expand` is the loop itself; the original SEA baseline
(:mod:`repro.core.sea`) runs it with a different Shrink and level.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graph.local import LocalGraph
from .cd import init_state, local_kkt, objective
from .expansion import expand, expansion_candidates


@dataclass
class SEAStats:
    shrink_iters: int = 0
    outer_iters: int = 0
    expansion_errors: int = 0  # expansions that decreased f (Section VI-A)


def shrink_and_expand(g: LocalGraph, x0: dict, shrink, level=None,
                      max_outer: int = 500) -> tuple[dict, dict, SEAStats]:
    """The Shrink-and-Expansion loop from the sparse embedding ``x0``.

    ``shrink(x, p)`` runs the Shrink stage in place and returns its
    iteration count. ``level(x, p)`` gives the lambda/2 that Expansion
    compares gradients against; ``None`` means the exact f(x). Stops when
    Z is empty, after ``max_outer`` rounds, or after 3 expansions in a row
    without progress. Returns (x, p, stats).
    """
    x, p = init_state(g, x0)
    stats = SEAStats()
    stale = 0
    for _ in range(max_outer):
        stats.outer_iters += 1
        stats.shrink_iters += shrink(x, p)
        f_before = objective(x, p)
        lam2 = f_before if level is None else level(x, p)
        Z = expansion_candidates(g, x, p, level=lam2)
        if not Z:
            break
        expand(g, x, p, Z, level=lam2)
        f_after = objective(x, p)
        if f_after < f_before - 1e-9:
            stats.expansion_errors += 1
        # Stagnation guard: with a finite shrink tolerance, Z can stay
        # marginally non-empty without measurable progress.
        stale = stale + 1 if f_after <= f_before + 1e-12 else 0
        if stale >= 3:
            break
    return x, p, stats


def seacd(g: LocalGraph, start_vertex: int, max_outer: int = 500
          ) -> tuple[dict, dict, SEAStats]:
    """Run SEACD on (a positive-part) LocalGraph from the e_u start.

    Returns (x, p, stats). ``start_vertex`` is the u of the e_u
    initialization of Section V-D.
    """
    def shrink(x: dict, p: dict) -> int:
        return local_kkt(g, x, p, list(x.keys()))

    return shrink_and_expand(g, {start_vertex: 1.0}, shrink,
                             max_outer=max_outer)
