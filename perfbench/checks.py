"""Output checks for every solve the benchmark times.

Two kinds, both run outside the timed region:

* seed-independent claims of the paper, checked on any seed
  (:func:`claims`): positive-clique outputs (Theorem 5), zero SEACD /
  NewSEA expansion errors, f(NewSEA) >= f(full-init SEACD+Refine),
  mu_u >= f on the NewSEA support (Theorem 6), a local KKT point at the
  returned embedding, and self-consistent reported densities;
* reference fingerprints at benchmark seed 0 (:func:`fingerprint_diff`):
  f or rho to 1e-9 relative, |S|, the planted group, the top-5 supports,
  SEA error counts and the EgoScan W_D.
"""
from __future__ import annotations

import math

from repro.core.kbounds import smart_init_bounds_local
from repro.core.metrics import (
    affinity,
    avg_degree,
    is_positive_clique,
    total_degree,
)
from repro.tables.common import identify_group

REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def fingerprint(ds, solver: str, res) -> dict:
    """Comparable summary of one solve (external vertex ids, JSON-able)."""
    g = ds.local
    if solver == "dcsad":
        ids = g.to_ids(res.S)
        return {"rho": res.rho, "size": len(ids),
                "group": identify_group(ds, ids)}
    if solver in ("dcsga", "sea"):
        ids = g.to_ids(res.x)
        fp = {"f": res.f, "size": len(ids), "group": identify_group(ds, ids)}
        if solver == "sea":
            fp["errors"] = res.expansion_errors
        return fp
    if solver == "topk":
        full, top = res
        return {"f": [f for _, f, _ in top],
                "supports": [g.to_ids(k) for k, _, _ in top],
                "cliques": len(full.cliques)}
    if solver == "egoscan":
        return {"w": res.total_weight, "size": len(res.S)}
    raise ValueError(solver)


def fingerprint_diff(ref: dict, got: dict) -> list[str]:
    """Fields of ``got`` that do not match the reference fingerprint."""
    bad = []
    for key in sorted(set(ref) | set(got)):
        a, b = ref.get(key), got.get(key)
        if isinstance(a, float) or isinstance(b, float):
            ok = isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and _close(float(a), float(b))
        elif key == "f" and isinstance(a, list) and isinstance(b, list):
            ok = len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
        else:
            ok = a == b
        if not ok:
            bad.append(f"{key}: expected {a!r}, got {b!r}")
    return bad


def _kkt_gap(g, x: dict) -> float:
    """2 * (max - min) of (D x)_u over the support: 0 at a local KKT point."""
    p = {u: sum(w * x.get(v, 0.0) for v, w in g.adj[u].items()) for u in x}
    return 2.0 * (max(p.values()) - min(p.values())) if p else 0.0


def _weight_scale(g) -> float:
    return max((abs(w) for a in g.adj for w in a.values()), default=1.0)


def claims(ds, results: dict) -> dict:
    """{solver: [violated claim, ...]} for one graph's first-pass results."""
    gd = ds.local
    gdp = gd.positive_part()
    tol = REL * _weight_scale(gd)
    out: dict = {}

    def fail(solver: str, msg: str) -> None:
        out.setdefault(solver, []).append(msg)

    ad = results.get("dcsad")
    if ad is not None:
        if not ad.S or not _close(ad.rho, avg_degree(gd, ad.S)):
            fail("dcsad", "reported rho differs from rho_D(S)")
        max_w = max((w for a in gd.adj for w in a.values()), default=0.0)
        if ad.rho < max_w - tol:
            fail("dcsad", "rho below the max-edge candidate")
        if not ad.ratio >= 1.0 - REL:
            fail("dcsad", f"approximation ratio {ad.ratio} < 1")

    for solver in ("dcsga", "sea"):
        r = results.get(solver)
        if r is None:
            continue
        S = sorted(r.x)
        if not is_positive_clique(gd, S):
            fail(solver, "support is not a positive clique (Theorem 5)")
        if not _close(r.f, affinity(gdp, r.x)):
            fail(solver, "reported f differs from x'Dx")
        if not math.isclose(sum(r.x.values()), 1.0, abs_tol=1e-9):
            fail(solver, "embedding is off the simplex")

    ga = results.get("dcsga")
    if ga is not None:
        if ga.expansion_errors:
            fail("dcsga", f"{ga.expansion_errors} NewSEA expansion errors")
        mu = smart_init_bounds_local(gdp)
        low = [u for u in ga.x if mu.get(u, 0.0) < ga.f - tol]
        if ga.f > 0 and low:
            fail("dcsga", f"mu_u < f for {len(low)} support vertices "
                          "(Theorem 6)")
        gap = _kkt_gap(gdp, ga.x)
        if gap > 1e-2 / max(1, len(ga.x)) + tol:
            fail("dcsga", f"KKT gap {gap:.3g} at the returned point")

    topk = results.get("topk")
    if topk is not None:
        full, top = topk
        if full.expansion_errors:
            fail("topk", f"{full.expansion_errors} SEACD expansion errors")
        fs = [f for _, f, _ in top]
        # The best clique need not survive: dedup drops a clique that is a
        # subset of another found clique, even one with a lower f.
        if fs != sorted(fs, reverse=True):
            fail("topk", "top-k not ordered by f")
        for k, _, _ in top:
            if not is_positive_clique(gd, sorted(k)):
                fail("topk", "a top-k support is not a positive clique")
        keys = [k for k, _, _ in top]
        if any(a < b or b < a for i, a in enumerate(keys) for b in keys[i + 1:]):
            fail("topk", "a top-k clique contains another")
        if ga is not None and ga.f < full.f - REL * max(1.0, abs(full.f)):
            fail("dcsga", "f(NewSEA) < f(full-init SEACD+Refine)")

    es = results.get("egoscan")
    if es is not None and not _close(es.total_weight, total_degree(gd, es.S)):
        fail("egoscan", "reported W_D differs from W_D(S)")
    return out


class Verifier:
    """Checks every solve and counts attempted / failed ones.

    The first pass's outputs are checked in full: the paper's claims and,
    when ``refs`` is given (seed 0), the reference fingerprints. Every
    later pass must reproduce the first pass's fingerprints exactly. A
    traced run also checks that its counters repeat
    (:meth:`check_counters`).
    """

    def __init__(self, graphs, refs: dict | None) -> None:
        self.ds = {g.name: g.ds for g in graphs}
        self.refs = refs
        self.first: dict = {}  # (solver, graph) -> fingerprint
        self.bad: set = set()  # (solver, graph) that failed a check
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, out: dict) -> None:
        """Check one pass's {(solver, graph): result}."""
        fresh = not self.first
        if fresh:
            for name, ds in self.ds.items():
                res = {s: r for (s, gname), r in out.items() if gname == name}
                for solver, msgs in claims(ds, res).items():
                    self._fail((solver, name), msgs)
        for key, res in out.items():
            solver, name = key
            fp = fingerprint(self.ds[name], solver, res)
            self.attempted += 1
            if fresh:
                self.first[key] = fp
                if self.refs is not None:
                    ref = self.refs.get(name, {}).get(solver)
                    diff = ["no reference fingerprint"] if ref is None \
                        else fingerprint_diff(ref, fp)
                    if diff:
                        self._fail(key, diff)
            elif fp != self.first[key]:
                self._fail(key, ["output changed between passes"])
            if key in self.bad:
                self.failed += 1

    def check_counters(self, counters: list) -> None:
        """The deterministic counters of every traced pass must be equal.

        Counts as one more attempted check, failed if any pass differs.
        """
        self.attempted += 1
        diff = sorted({k for c in counters[1:] for k in set(c) | set(counters[0])
                       if c.get(k) != counters[0].get(k)})
        if diff:
            self.failed += 1
            self.messages.append(
                f"traced counters differ between passes: {', '.join(diff)}")

    def _fail(self, key, msgs) -> None:
        self.bad.add(key)
        self.messages += [f"{key[0]} on {key[1]}: {m}" for m in msgs]
