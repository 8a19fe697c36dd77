"""Tables V & VI: topic rankings on the DM keyword graphs (test scale)."""
from types import SimpleNamespace

import pytest

from repro.graph.local import LocalGraph
from repro.tables import table05_06


@pytest.fixture(scope="module")
def t5(spark):
    return table05_06.run_table5(spark, scale="test")


@pytest.fixture(scope="module")
def t6(spark):
    return table05_06.run_table6(spark, scale="test")


def _topics(rows, gd_type):
    out = [r for r in rows if r["gd_type"] == gd_type]
    return [frozenset(r["topic"]) for r in sorted(out, key=lambda r: r["rank"])]


EMERGING = [
    {"social", "networks"},
    {"large", "scale"},
    {"matrix", "factorization"},
    {"semi", "supervised", "learning"},
    {"unsupervised", "feature", "selection"},
]
DISAPPEARING = [
    {"mining", "association", "rules"},
    {"knowledge", "discovery"},
    {"support", "vector", "machines"},
    {"logic", "inductive", "programming"},
    {"intrusion", "detection"},
]
G1_TOP = [
    {"time", "series"},
    {"support", "vector", "machines"},
    {"feature", "selection"},
    {"decision", "trees"},
    {"nearest", "neighbor"},
]
G2_TOP = [
    {"social", "networks"},
    {"time", "series"},
    {"large", "scale"},
    {"feature", "selection"},
    {"semi", "supervised", "learning"},
]


def test_emerging_top5_order(t5):
    assert _topics(t5, "emerging") == [frozenset(t) for t in EMERGING]


def test_disappearing_top5_order(t5):
    assert _topics(t5, "disappearing") == [frozenset(t) for t in DISAPPEARING]


def test_affinities_monotone(t5):
    for gd_type in ("emerging", "disappearing"):
        vals = [
            r["affinity"]
            for r in sorted(
                (x for x in t5 if x["gd_type"] == gd_type),
                key=lambda r: r["rank"],
            )
        ]
        assert vals == sorted(vals, reverse=True)


def test_pair_embeddings_uniform(t5):
    for r in t5:
        if len(r["topic"]) == 2:
            assert all(v == pytest.approx(0.5, abs=0.05)
                       for v in r["topic"].values())


def test_triple_embeddings_uneven(t5):
    """Heavy-pair triples get ~(0.43, 0.43, 0.14) as in the paper."""
    for r in t5:
        if frozenset(r["topic"]) == frozenset(
            {"support", "vector", "machines"}
        ):
            assert r["topic"]["machines"] < 0.25
            assert r["topic"]["support"] == pytest.approx(0.43, abs=0.06)


def test_g1_top5(t6):
    assert _topics(t6, "G1 (early)") == [frozenset(t) for t in G1_TOP]


def test_g2_top5(t6):
    assert _topics(t6, "G2 (recent)") == [frozenset(t) for t in G2_TOP]


def test_time_series_cooldown(t6):
    def f_of(gd_type, topic):
        for r in t6:
            if r["gd_type"] == gd_type and frozenset(r["topic"]) == topic:
                return r["affinity"]
        raise KeyError(topic)

    ts = frozenset({"time", "series"})
    assert f_of("G1 (early)", ts) > f_of("G2 (recent)", ts)


def test_top5_orders_tied_members_by_keyword(monkeypatch):
    """Members sort by printed weight, then keyword, not by x's key order."""
    cliques = [
        (frozenset({0, 1, 2}), 2.0, {2: 0.4001, 0: 0.2, 1: 0.3999}),
        (frozenset({3, 4}), 1.0, {4: 0.5, 3: 0.5}),
    ]
    monkeypatch.setattr(table05_06, "seacd_refine_full",
                        lambda g: SimpleNamespace(cliques=cliques))
    g = LocalGraph(["a", "b", "c", "d", "e"], [{} for _ in range(5)])
    topics = [list(r["topic"].items()) for r in table05_06._top5(g)]
    assert topics == [[("b", 0.4), ("c", 0.4), ("a", 0.2)],
                      [("d", 0.5), ("e", 0.5)]]
