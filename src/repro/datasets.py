"""Dataset registry: every (family, config) difference graph of Table II.

Each of the seven families runs its generator once per scale and yields
one base difference graph G_D with its vertex-universe size, planted
groups and labels. The family's configs, 16 in all, are transforms of that
base (:data:`_FAMILIES`): Emerging <-> Disappearing swaps G1 and G2
(``flip``, Section III-B) and the Discrete setting maps the weights
(``discretize``, Section VI-B).

``get_dataset(spark, family, config, scale)`` returns a
:class:`DCSDataset` whose ``edges`` is the canonical Spark difference
graph and whose ``local`` property lazily collects a LocalGraph for the
driver-side optimizers. Bases and datasets are cached per scale for the
lifetime of the process; ``scale`` is "test" (tiny, for unit tests) or
"bench" (the EXPERIMENTS.md scale).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from pyspark.sql import DataFrame, SparkSession

from .graph import difference as diff
from .graph.local import LocalGraph, from_edge_pandas
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
            pdf = self.edges.select("src", "dst", "weight").toPandas()
            ids = sorted(set(pdf["src"]).union(pdf["dst"]))
            # Integer-id families keep their isolated vertices (n as in the
            # dataset), after the endpoints so no endpoint's index moves.
            if ids and not isinstance(ids[0], str):
                present = set(ids)
                ids += [i for i in range(self.n) if i not in present]
            self._local = from_edge_pandas(pdf, ids)
        return self._local


def _dblp(spark, scale):
    p = _SCALES[scale]["dblp"]
    g1, g2 = coauthor.era_graphs(spark, coauthor.events(**p))
    return (diff.difference(g1, g2), p["n"], dict(coauthor.PLANTED),
            coauthor.labels(p["n"]))


def _dm(spark, scale):
    g1, g2 = dm_single_graphs(spark, scale)
    planted = {"pairs": [list(t) for t in titles.PAIR_TOPICS],
               "triples": [list(t) for t in titles.TRIPLE_TOPICS]}
    return diff.difference(g1.edges, g2.edges), g1.n, planted, None


def _wiki(spark, scale):
    p = _SCALES[scale]["wiki"]
    g1, g2, ranges = signed.interaction_graphs(spark, **p)
    # Consistent: G1 - G2 (positive interactions dominate).
    return diff.difference(g2, g1), p["n"], ranges, None


def _douban(kind, spark, scale):
    p = _SCALES[scale]["douban"]
    social, interest, planted = douban.douban_graphs(spark, kind, **p)
    return diff.difference(social, interest), p["n"], planted, None


def _dblpc(spark, scale):
    p = _SCALES[scale]["dblpc"]
    g1, g2 = bigco.dblpc_graphs(spark, **p)
    return diff.difference(g1, g2), p["n"], dict(bigco.DBLPC_PLANTED), None


def _actor(spark, scale):
    p = _SCALES[scale]["actor"]
    gd = diff.canonicalize(bigco.actor_graph(spark, **p))
    return gd, p["n"], dict(bigco.ACTOR_PLANTED), None


def _same(gd: DataFrame) -> DataFrame:
    return gd


# family -> (base builder, {config: transform of the base G_D}), in Table II
# order. A builder maps (spark, scale) to (G_D, n, planted, labels).
_FAMILIES = {
    "dblp": (_dblp, {
        "weighted-emerging": _same,
        "weighted-disappearing": diff.flip,
        "discrete-emerging": diff.discretize,
        "discrete-disappearing": lambda gd: diff.flip(diff.discretize(gd)),
    }),
    "dm": (_dm, {"emerging": _same, "disappearing": diff.flip}),
    "wiki": (_wiki, {"consistent": _same, "conflicting": diff.flip}),
    "movie": (partial(_douban, "movie"),
              {"interest-social": _same, "social-interest": diff.flip}),
    "book": (partial(_douban, "book"),
             {"interest-social": _same, "social-interest": diff.flip}),
    "dblpc": (_dblpc, {"weighted": _same, "discrete": diff.discretize}),
    "actor": (_actor, {"weighted": _same,
                       "discrete": lambda gd: diff.cap_weights(gd, 10.0)}),
}

CONFIGS = {fam: list(cfgs) for fam, (_, cfgs) in _FAMILIES.items()}

_CACHE: dict = {}


def get_dataset(spark: SparkSession, family: str, config: str,
                scale: str = "test") -> DCSDataset:
    key = (family, config, scale)
    if key not in _CACHE:
        build, transforms = _FAMILIES[family]
        if (family, scale) not in _CACHE:
            gd, n, planted, labels = build(spark, scale)
            _CACHE[family, scale] = (gd.localCheckpoint(eager=True), n,
                                     planted, labels)
        base, n, planted, labels = _CACHE[family, scale]
        edges = transforms[config](base).localCheckpoint(eager=True)
        _CACHE[key] = DCSDataset(family, config, scale, edges, n, labels,
                                 planted)
    return _CACHE[key]


def all_configs():
    """All 16 (family, config) pairs in Table II order."""
    return [(fam, cfg) for fam, cfgs in CONFIGS.items() for cfg in cfgs]


def dm_single_graphs(spark: SparkSession, scale: str = "test"
                     ) -> tuple[DCSDataset, DCSDataset]:
    """The two DM keyword graphs (Table VI); DM's G_D is their difference.

    Their ids are keyword strings, so ``local`` adds no isolated vertices.
    """
    key = ("dm-single", scale)
    if key not in _CACHE:
        p = _SCALES[scale]["dm"]
        n = len(titles.vocabulary(p["n_filler"]))
        _CACHE[key] = tuple(
            DCSDataset("dm", era, scale,
                       diff.canonicalize(g).localCheckpoint(eager=True), n)
            for era, g in zip(("G1", "G2"),
                              titles.keyword_graphs(spark, **p)))
    return _CACHE[key]
