"""DM titles generator: corpus structure, Spark co-occurrence, calibration."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphgen import titles

from tests.oracle import assert_equivalent

N1, N2, NF = 1000, 1200, 80


@pytest.fixture(scope="module")
def corpus():
    return (
        titles.titles_for_era(N1, 1, NF),
        titles.titles_for_era(N2, 2, NF),
    )


@pytest.fixture(scope="module")
def graphs(spark):
    g1, g2 = titles.keyword_graphs(spark, N1, N2, NF)
    return g1.cache(), g2.cache()


def test_corpus_sizes(corpus):
    t1, t2 = corpus
    assert len(t1) == N1 and len(t2) == N2


def test_titles_have_distinct_words(corpus):
    for t in corpus[0][:200]:
        assert len(set(t)) == len(t)


def test_vocabulary_size():
    v = titles.vocabulary(NF)
    assert len(v) == len(titles.TOPIC_WORDS) + NF
    assert len(set(v)) == len(v)


def test_pair_topic_counts_deterministic(corpus):
    t2 = corpus[1]
    n_social = sum(1 for t in t2 if "social" in t and "networks" in t)
    # f2 = 1.30 -> weight 2.6 -> round(2.6% of N2)
    assert n_social == round(2 * 1.30 * N2 / 100)


def test_cooccurrence_weight_formula(spark, corpus, graphs):
    _, g2 = graphs
    t2 = corpus[1]
    n_social = sum(1 for t in t2 if "social" in t and "networks" in t)
    row = g2.where(
        (F.col("src") == "networks") & (F.col("dst") == "social")
    ).collect()
    assert row[0]["weight"] == pytest.approx(100.0 * n_social / N2)


def test_cooccurrence_oracle(spark, graphs):
    """The Spark grouped pair count checked against DuckDB on both eras."""
    for era, n, g in ((1, N1, graphs[0]), (2, N2, graphs[1])):
        docs = pd.DataFrame(
            [(doc, w) for doc, words in
             enumerate(titles.titles_for_era(n, era, NF)) for w in set(words)],
            columns=["doc", "word"],
        )
        assert_equivalent(
            g,
            f"""
            SELECT a.word AS src, b.word AS dst,
                   100.0 * count(*) / {n} AS weight
            FROM docs a JOIN docs b ON a.doc = b.doc AND a.word < b.word
            GROUP BY 1, 2
            """,
            docs=docs,
        )


def test_era_graph_plan_has_no_join(spark):
    """Each title's pairs come from the generator; Spark only groups them."""
    g1, _ = titles.keyword_graphs(spark, N1, N2, NF)
    plan = g1._jdf.queryExecution().executedPlan().toString()
    assert "Join" not in plan, plan


def test_triple_topic_heavy_light_ratio(spark, graphs):
    g1, _ = graphs
    w = {
        (r["src"], r["dst"]): r["weight"]
        for r in g1.where(
            F.col("src").isin("machines", "support", "vector")
            & F.col("dst").isin("machines", "support", "vector")
        ).collect()
    }
    heavy = w[("support", "vector")]
    light = w[("machines", "support")]
    assert light / heavy == pytest.approx(0.6, abs=0.05)


def test_time_series_cooldown(spark, graphs):
    g1, g2 = graphs

    def wt(g, a, b):
        return g.where((F.col("src") == a) & (F.col("dst") == b)).collect()[0][
            "weight"
        ]

    assert wt(g1, "series", "time") > wt(g2, "series", "time")


def test_filler_pairs_are_light(spark, graphs):
    _, g2 = graphs
    mx = (
        g2.where(F.col("src").startswith("kw") & F.col("dst").startswith("kw"))
        .agg(F.max("weight"))
        .collect()[0][0]
    )
    assert mx < 1.0  # well below every planted topic weight
