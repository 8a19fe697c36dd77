"""Dataset registry: every (family, config) difference graph of Table II.

16 configurations, mirroring the paper:

* dblp: weighted/discrete × emerging/disappearing (4)
* dm: emerging/disappearing (2)
* wiki: consistent/conflicting (2)
* movie, book: interest-social / social-interest (4)
* dblpc: weighted/discrete (2)
* actor: weighted/discrete (2)

``get_dataset(spark, family, config, scale)`` returns a
:class:`DCSDataset` whose ``edges`` is the canonical Spark difference
graph and whose ``local`` property lazily collects a LocalGraph for the
driver-side optimizers. Results are cached per (family, config, scale)
for the lifetime of the process; ``scale`` is "test" (tiny, for unit
tests) or "bench" (the EXPERIMENTS.md scale).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from .graph import difference as diff
from .graph.local import LocalGraph, collect_graph
from .graphgen import bigco, coauthor, douban, signed, titles

_SCALES = {
    "test": dict(
        dblp=dict(n=500, bg_pairs=1200),
        dm=dict(n1=1500, n2=2000, n_filler=150),
        wiki=dict(n=900, bg_edges=2500, n_big_cons=120, n_big_conf=60),
        # Douban keeps the full planted structures (they define the exact
        # Table XII/XIII densities) and shrinks only the background.
        douban=dict(n=2000, scale=1.0),
        dblpc=dict(n=900, bg_pairs=2000),
        actor=dict(n=800, bg_pairs=6000),
    ),
    "bench": dict(
        dblp=dict(n=2500, bg_pairs=8000),
        dm=dict(n1=6000, n2=8000, n_filler=600),
        wiki=dict(n=8000, bg_edges=25000, n_big_cons=300, n_big_conf=80),
        douban=dict(n=6000, scale=1.0),
        # DBLP-C and Actor are kept small enough for the full-init
        # SEA+Refine baseline of Table VII to finish in minutes: SEA's
        # absolute |df| <= 1e-6 convergence test iterates enormously on
        # heavy-weight graphs — the same effect that cost the authors
        # 73671 s on their Actor data.
        dblpc=dict(n=4000, bg_pairs=10000),
        actor=dict(n=3000, bg_pairs=30000),
    ),
}

CONFIGS = {
    "dblp": ["weighted-emerging", "weighted-disappearing",
             "discrete-emerging", "discrete-disappearing"],
    "dm": ["emerging", "disappearing"],
    "wiki": ["consistent", "conflicting"],
    "movie": ["interest-social", "social-interest"],
    "book": ["interest-social", "social-interest"],
    "dblpc": ["weighted", "discrete"],
    "actor": ["weighted", "discrete"],
}


@dataclass
class DCSDataset:
    family: str
    config: str
    scale: str
    edges: DataFrame  # canonical difference-graph edges (src, dst, weight)
    n: int  # size of the vertex universe (isolated vertices included)
    labels: dict | None = None  # vertex id -> display name
    planted: dict = field(default_factory=dict)  # group name -> vertex ids
    _local: LocalGraph | None = None

    @property
    def local(self) -> LocalGraph:
        if self._local is None:
            self._local = collect_graph(self.edges)
            # Pad the universe with isolated vertices for integer-id
            # families so the driver graph's n matches the dataset's.
            if self._local.n < self.n and self._local.ids and not isinstance(
                self._local.ids[0], str
            ):
                missing = [
                    i for i in range(self.n) if i not in self._local.index
                ]
                for i in missing:
                    self._local.index[i] = len(self._local.ids)
                    self._local.ids.append(i)
                    self._local.adj.append({})
                self._local.n = len(self._local.ids)
        return self._local

    def planted_indices(self, name: str) -> list:
        g = self.local
        return sorted(g.index[v] for v in self.planted[name] if v in g.index)


_CACHE: dict = {}


def get_dataset(spark: SparkSession, family: str, config: str,
                scale: str = "test") -> DCSDataset:
    key = (family, config, scale)
    if key in _CACHE:
        return _CACHE[key]
    builder = {
        "dblp": _build_dblp,
        "dm": _build_dm,
        "wiki": _build_wiki,
        "movie": lambda s, c, p: _build_douban(s, "movie", c, p),
        "book": lambda s, c, p: _build_douban(s, "book", c, p),
        "dblpc": _build_dblpc,
        "actor": _build_actor,
    }[family]
    params_key = "douban" if family in ("movie", "book") else family
    ds = builder(spark, config, _SCALES[scale][params_key])
    ds.scale = scale
    ds.edges = ds.edges.localCheckpoint(eager=True)
    _CACHE[key] = ds
    return ds


def all_configs():
    """All 16 (family, config) pairs in Table II order."""
    return [(fam, cfg) for fam, cfgs in CONFIGS.items() for cfg in cfgs]


def dm_single_graphs(spark: SparkSession, scale: str = "test"
                     ) -> tuple[DataFrame, DataFrame]:
    """The two DM keyword-association graphs themselves (for Table VI)."""
    key = ("dm-single", scale)
    if key not in _CACHE:
        p = _SCALES[scale]["dm"]
        g1, g2 = titles.keyword_graphs(spark, p["n1"], p["n2"], p["n_filler"])
        g1 = diff.canonicalize(g1).localCheckpoint(eager=True)
        g2 = diff.canonicalize(g2).localCheckpoint(eager=True)
        _CACHE[key] = (g1, g2)
    return _CACHE[key]


def _build_dblp(spark, config, p) -> DCSDataset:
    ev = coauthor.events(p["n"], p["bg_pairs"])
    g1, g2 = coauthor.era_graphs(spark, ev)
    gd = diff.difference(g1, g2)  # emerging: G2 - G1
    setting, kind = config.split("-")
    if setting == "discrete":
        gd = diff.discretize(gd)
    if kind == "disappearing":
        gd = diff.flip(gd)
    return DCSDataset("dblp", config, "", gd, p["n"],
                      labels=coauthor.labels(p["n"]),
                      planted=dict(coauthor.PLANTED))


def _build_dm(spark, config, p) -> DCSDataset:
    g1, g2 = titles.keyword_graphs(spark, p["n1"], p["n2"], p["n_filler"])
    gd = diff.difference(g1, g2)
    if config == "disappearing":
        gd = diff.flip(gd)
    n = len(titles.vocabulary(p["n_filler"]))
    planted = {
        "pairs": [list(t) for t in titles.PAIR_TOPICS],
        "triples": [list(t) for t in titles.TRIPLE_TOPICS],
    }
    return DCSDataset("dm", config, "", gd, n, labels=None, planted=planted)


def _build_wiki(spark, config, p) -> DCSDataset:
    g1, g2, ranges = signed.interaction_graphs(
        spark, n=p["n"], bg_edges=p["bg_edges"],
        n_big_cons=p["n_big_cons"], n_big_conf=p["n_big_conf"],
    )
    # Consistent: G1 - G2 (positive interactions dominate).
    gd = diff.difference(g2, g1)  # difference(a, b) = b - a
    if config == "conflicting":
        gd = diff.flip(gd)
    return DCSDataset("wiki", config, "", gd, p["n"], planted=ranges)


def _build_douban(spark, kind, config, p) -> DCSDataset:
    social, interest, planted = douban.douban_graphs(
        spark, kind, n=p["n"], scale=p["scale"]
    )
    gd = diff.difference(social, interest)  # interest - social
    if config == "social-interest":
        gd = diff.flip(gd)
    return DCSDataset(kind, config, "", gd, p["n"], planted=planted)


def _build_dblpc(spark, config, p) -> DCSDataset:
    g1, g2 = bigco.dblpc_graphs(spark, p["n"], p["bg_pairs"])
    gd = diff.difference(g1, g2)
    if config == "discrete":
        gd = diff.discretize(gd)
    return DCSDataset("dblpc", config, "", gd, p["n"],
                      planted=dict(bigco.DBLPC_PLANTED))


def _build_actor(spark, config, p) -> DCSDataset:
    gd = diff.canonicalize(bigco.actor_graph(spark, p["n"], p["bg_pairs"]))
    if config == "discrete":
        gd = diff.cap_weights(gd, 10.0)
    return DCSDataset("actor", config, "", gd, p["n"],
                      planted=dict(bigco.ACTOR_PLANTED))
