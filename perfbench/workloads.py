"""Benchmark workloads: seeded difference graphs and the solver battery.

Each workload is a list of *pipelines*. A pipeline runs one graphgen
generator with ``seed = generator default + benchmark seed``, builds the
difference graph with :mod:`repro.graph.difference`, materialises it once
and derives its configurations (flip / discretize) from it. At benchmark
seed 0 every graph's edge set equals ``repro.datasets.get_dataset`` at the
same sizes (see ``test_perfbench.py``).

The sizes are fixed per workload, not taken from ``repro.datasets``: the
benchmark must finish a run in well under a minute on 4 cores, which the
``bench`` scale does not allow (one solver pass takes 18-34 s there).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.datasets import DCSDataset
from repro.graph import difference as diff
from repro.graphgen import coauthor, douban, titles

# The generators' own default seeds; benchmark seed 0 reproduces them.
_BASE_SEED = {"dblp": 7, "dm": 11, "douban": 17}


def gen_seed(family: str, seed: int) -> int:
    """Generator seed for a benchmark seed (seed 0 -> the repo default)."""
    return _BASE_SEED[family] + seed % 2**31


@dataclass
class Pipeline:
    """One Spark pipeline: a base difference graph and its configurations."""

    family: str
    base: DataFrame  # G_D before the per-config transform
    configs: dict  # config name -> transform(DataFrame) -> DataFrame
    n: int
    planted: dict
    labels: dict | None = None


def _dm(spark: SparkSession, seed: int, p: dict) -> list[Pipeline]:
    g1, g2 = titles.keyword_graphs(spark, p["n1"], p["n2"], p["n_filler"],
                                   seed=gen_seed("dm", seed))
    planted = {
        "pairs": [list(t) for t in titles.PAIR_TOPICS],
        "triples": [list(t) for t in titles.TRIPLE_TOPICS],
    }
    return [Pipeline("dm", diff.difference(g1, g2),
                     {"emerging": _same, "disappearing": diff.flip},
                     len(titles.vocabulary(p["n_filler"])), planted)]


def _dblp(spark: SparkSession, seed: int, p: dict) -> list[Pipeline]:
    ev = coauthor.events(p["n"], p["bg_pairs"], seed=gen_seed("dblp", seed))
    g1, g2 = coauthor.era_graphs(spark, ev)
    configs = {
        "weighted-emerging": _same,
        "weighted-disappearing": diff.flip,
        "discrete-emerging": diff.discretize,
        "discrete-disappearing": lambda gd: diff.flip(diff.discretize(gd)),
    }
    return [Pipeline("dblp", diff.difference(g1, g2), configs, p["n"],
                     dict(coauthor.PLANTED), coauthor.labels(p["n"]))]


def _douban(spark: SparkSession, seed: int, p: dict) -> list[Pipeline]:
    out = []
    for kind in ("movie", "book"):
        social, interest, planted = douban.douban_graphs(
            spark, kind, n=p["n"], scale=p["scale"],
            seed=gen_seed("douban", seed))
        out.append(Pipeline(kind, diff.difference(social, interest),
                            {"interest-social": _same,
                             "social-interest": diff.flip},
                            p["n"], planted))
    return out


def _same(gd: DataFrame) -> DataFrame:
    return gd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (pipeline builder, sizes) pairs; sizes use repro.datasets' keys.
    pipelines: tuple
    # Graph names ("family/config") the EgoScan and SEA+Refine baselines
    # run on.
    baselines_on: tuple = ()


_DBLP_GRAPHS = tuple(f"dblp/{c}" for c in (
    "weighted-emerging", "weighted-disappearing",
    "discrete-emerging", "discrete-disappearing"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dm-dense",
            "dense heavy-weight keyword graphs: mu_u prunes few NewSEA starts,"
            " so 2-CD, SEACD and Refine do nearly all DCSGA work",
            ((_dm, dict(n1=1500, n2=2000, n_filler=100)),),
        ),
        Workload(
            "dblp-douban",
            "Spark-heavy set-up (three pipelines, eight graphs); mu_u prunes"
            " ~98% of NewSEA starts; large cliques; the EgoScan and SEA+Refine"
            " baselines",
            ((_dblp, dict(n=500, bg_pairs=1200)),
             (_douban, dict(n=1000, scale=0.5))),
            baselines_on=_DBLP_GRAPHS,
        ),
    )
}


@dataclass
class Graph:
    name: str  # "family/config"
    ds: DCSDataset


def pipelines(spark: SparkSession, wl: Workload, seed: int) -> list[Pipeline]:
    """Unevaluated Spark pipelines of a workload (driver-side generation)."""
    return [p for build, sizes in wl.pipelines
            for p in build(spark, seed, sizes)]


def dataset(pl: Pipeline, config: str, edges: DataFrame) -> DCSDataset:
    """The public dataset record for one materialised configuration."""
    return DCSDataset(pl.family, config, "perfbench", edges, pl.n,
                      labels=pl.labels, planted=pl.planted)

