"""Shared helpers for the Table II–XIV harnesses."""
from __future__ import annotations

import time

from ..core.metrics import affinity, is_positive_clique, total_degree
from ..datasets import DCSDataset


def timed(solve, *args):
    """``(solve(*args), seconds)``, wall time by ``time.perf_counter``."""
    t0 = time.perf_counter()
    res = solve(*args)
    return res, time.perf_counter() - t0


def identify_group(ds: DCSDataset, ids: list) -> str:
    """Name of the planted group best matching a set of external ids."""
    s = set(ids)
    best, score = "(background)", 0.0
    for name, members in ds.planted.items():
        try:
            m = set(members)
        except TypeError:  # only perfbench's nested DM topics reach here
            continue
        j = len(s & m) / len(s | m) if s | m else 0.0
        if j > score:
            best, score = name, j
    return best


def solution_row(ds: DCSDataset, indices: list, x: dict | None = None) -> dict:
    """Common density diagnostics of a solution on a dataset's G_D."""
    g = ds.local
    S = sorted(indices)
    W = total_degree(g, S)
    row = {
        "group": identify_group(ds, g.to_ids(S)),
        "size": len(S),
        "positive_clique": is_positive_clique(g, S),
        # W/|S| is metrics.avg_degree; W/|S|^2 is the edge density.
        "avg_degree_diff": W / len(S),
        "edge_density_diff": W / len(S) ** 2,
        "total_weight_diff": W,
    }
    if x is not None:
        row["affinity_diff"] = affinity(g, x)
    return row


def fmt_table(rows: list, columns: list) -> str:
    """Plain-text table for job output and EXPERIMENTS.md."""
    def cell(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    widths = [
        max(len(c), *(len(cell(r.get(c, ""))) for r in rows)) if rows else len(c)
        for c in columns
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in rows:
        lines.append(
            "  ".join(cell(r.get(c, "")).ljust(w) for c, w in zip(columns, widths))
        )
    return "\n".join(lines)
