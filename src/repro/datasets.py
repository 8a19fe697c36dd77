"""Dataset registry: every (family, config) difference graph of Table II.

Each of the seven families runs its generator once per scale and yields
one base difference graph G_D with its vertex-universe size, planted
groups and labels. The family's configs, 16 in all, are transforms of that
base (:data:`_FAMILIES`): Emerging <-> Disappearing swaps G1 and G2
(``flip``, Section III-B) and the Discrete setting maps the weights
(``discretize``, Section VI-B).

``get_dataset(spark, family, config, scale)``, on the session of
:func:`spark_session`, returns a :class:`DCSDataset` whose ``edges`` is
the canonical Spark difference graph and whose ``local`` property lazily
collects a LocalGraph for the driver-side optimizers. Bases and datasets
are memoised per (session, family[, config], scale) by
:func:`functools.cache`: each base is checkpointed once, and a config's
``edges`` is its narrow transform of that base. ``scale`` is "test"
(tiny, for unit tests) or "bench" (the EXPERIMENTS.md scale). Actor's
base and the two DM keyword graphs are used as generated (already
canonical); the other bases are differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

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
    _local: LocalGraph | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def local(self) -> LocalGraph:
        """The driver graph over the edges' endpoints (collected once)."""
        if self._local is None:
            self._local = from_edge_pandas(
                self.edges.select("src", "dst", "weight").toPandas())
        return self._local


def _dblp(spark, scale):
    p = _SCALES[scale]["dblp"]
    g1, g2 = coauthor.era_graphs(spark, coauthor.events(**p))
    return (diff.difference(g1, g2), p["n"], dict(coauthor.PLANTED),
            coauthor.labels(p["n"]))


def _dm(spark, scale):
    g1, g2 = dm_single_graphs(spark, scale)
    return diff.difference(g1.edges, g2.edges), g1.n, {}, None


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
    g1, g2 = coauthor.era_graphs(spark, bigco.dblpc_events(**p))
    return diff.difference(g1, g2), p["n"], dict(bigco.DBLPC_PLANTED), None


def _actor(spark, scale):
    p = _SCALES[scale]["actor"]
    return (bigco.actor_graph(spark, **p), p["n"],
            dict(bigco.ACTOR_PLANTED), None)


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
    "actor": (_actor, {"weighted": _same, "discrete": diff.cap_weights}),
}

CONFIGS = {fam: list(cfgs) for fam, (_, cfgs) in _FAMILIES.items()}


def spark_session() -> SparkSession:
    """The SparkSession that builds the datasets: 64 shuffle partitions,
    Arrow for the driver collects, and no broadcast joins, so the
    generators' joins take the shuffle path whatever their input sizes.

    Master and driver memory are launch settings and come from the
    caller (``spark-submit`` or ``PYSPARK_SUBMIT_ARGS``).
    """
    return (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


@cache
def _base(spark: SparkSession, family: str, scale: str) -> tuple:
    """The family's checkpointed G_D with its (n, planted, labels)."""
    gd, n, planted, labels = _FAMILIES[family][0](spark, scale)
    return gd.localCheckpoint(eager=True), n, planted, labels


@cache
def get_dataset(spark: SparkSession, family: str, config: str,
                scale: str) -> DCSDataset:
    base, n, planted, labels = _base(spark, family, scale)
    return DCSDataset(family, config, scale,
                      _FAMILIES[family][1][config](base), n, labels, planted)


def all_configs():
    """All 16 (family, config) pairs in Table II order."""
    return [(fam, cfg) for fam, cfgs in CONFIGS.items() for cfg in cfgs]


@cache
def dm_single_graphs(spark: SparkSession, scale: str
                     ) -> tuple[DCSDataset, DCSDataset]:
    """The two DM keyword graphs (Table VI); DM's G_D is their difference.

    Their ids are keyword strings and ``n`` is the vocabulary size; as
    for every dataset, ``local`` adds no isolated vertices.
    """
    p = _SCALES[scale]["dm"]
    n = len(titles.vocabulary(p["n_filler"]))
    return tuple(DCSDataset("dm", era, scale, g.localCheckpoint(eager=True), n)
                 for era, g in zip(("G1", "G2"),
                                   titles.keyword_graphs(spark, **p)))
