"""Tables III/IV/VIII/IX harness on the DBLP family (test scale).

These are the paper's headline qualitative results: each (setting,
G_D type, measure) cell must recover the same planted group kind with
the calibrated densities.
"""
import pytest

from repro.tables import dblp as harness


@pytest.fixture(scope="module")
def dblp(spark):
    """The rows of Tables III, IV, VIII and IX, in that order."""
    return harness.run(spark, scale="test")


def _cell(rows, setting, gd_type, measure):
    for r in rows:
        if (
            r["setting"] == setting
            and r["gd_type"] == gd_type
            and r["measure"] == measure
        ):
            return r
    raise KeyError((setting, gd_type, measure))


def test_weighted_emerging_avg_degree(dblp):
    r = _cell(dblp[1], "weighted", "emerging", "avg-degree")
    assert r["group"] == "uta-ml"
    assert r["size"] == 4
    assert r["avg_degree_diff"] == pytest.approx(81.5)  # paper: 81.5
    assert r["positive_clique"]


def test_weighted_emerging_affinity(dblp):
    r = _cell(dblp[1], "weighted", "emerging", "graph-affinity")
    assert r["group"] == "uta-ml"
    assert r["affinity_diff"] == pytest.approx(23.1, abs=0.3)  # paper: 23.167


def test_weighted_disappearing_avg_degree(dblp):
    r = _cell(dblp[1], "weighted", "disappearing", "avg-degree")
    assert r["group"] == "japan-robotics-1"
    assert r["size"] == 6
    assert r["avg_degree_diff"] == pytest.approx(143.0)  # paper: 143


def test_weighted_disappearing_affinity(dblp):
    r = _cell(dblp[1], "weighted", "disappearing", "graph-affinity")
    assert r["group"] == "japan-robotics-2"
    assert r["size"] == 2
    assert r["affinity_diff"] == pytest.approx(50.0)  # paper: 50


def test_discrete_emerging_both_measures(dblp):
    ad = _cell(dblp[1], "discrete", "emerging", "avg-degree")
    ga = _cell(dblp[1], "discrete", "emerging", "graph-affinity")
    assert ad["group"] == ga["group"] == "cmu-security"
    assert ad["avg_degree_diff"] == pytest.approx(12.0)  # paper: 12
    assert ga["affinity_diff"] == pytest.approx(12.0 / 7, rel=1e-3)  # 1.714


def test_discrete_disappearing_avg_degree(dblp):
    r = _cell(dblp[1], "discrete", "disappearing", "avg-degree")
    assert r["group"] == "compiler-sw"
    assert r["size"] == 22
    assert r["avg_degree_diff"] == pytest.approx(21.0)  # paper: 21.45


def test_discrete_disappearing_affinity(dblp):
    r = _cell(dblp[1], "discrete", "disappearing", "graph-affinity")
    assert r["group"] == "japan-robotics-3"
    assert r["affinity_diff"] == pytest.approx(12.0 / 7, rel=1e-3)


def test_all_dcs_are_positive_cliques(dblp):
    """Every affinity DCS is a positive clique (Theorem 5 refinement)."""
    for r in dblp[1]:
        if r["measure"] == "graph-affinity":
            assert r["positive_clique"]


def test_ratio_close_to_two(dblp):
    for r in dblp[1]:
        if r["measure"] == "avg-degree":
            assert 1.0 <= r["approx_ratio"] <= 3.0  # paper reports ~2


def test_table3_members_match_group(dblp):
    for row in dblp[0]:
        if row["measure"] == "graph-affinity" and row["gd_type"] == "emerging":
            names = [m[0] if isinstance(m, tuple) else m for m in row["members"]]
            groups = {n.rsplit("-", 1)[0] for n in names}
            assert len(groups) == 1


def test_egoscan_bigger_than_dcs(dblp):
    """Table VIII shape: EgoScan groups are at least as large as the DCS
    groups and mostly not cliques (at test scale a sparse background can
    leave one basin exactly on a planted clique)."""
    t8 = dblp[2]
    for r in t8:
        ad = _cell(dblp[1], r["setting"], r["gd_type"], "avg-degree")
        assert r["size"] >= ad["size"]
    assert sum(1 for r in t8 if not r["positive_clique"]) >= 2


def test_egoscan_wins_total_weight(dblp):
    """Table IX shape: EgoScan maximizes W_D(S)."""
    for r in dblp[3]:
        assert r["w_egoscan"] >= r["w_dcsgreedy"] - 1e-9
        assert r["w_egoscan"] >= r["w_newsea"] - 1e-9


def test_dcs_wins_density(dblp):
    """Tables IV vs VIII: DCSGreedy dominates EgoScan on avg degree."""
    for r in dblp[2]:
        ad = _cell(dblp[1], r["setting"], r["gd_type"], "avg-degree")
        assert ad["avg_degree_diff"] >= r["avg_degree_diff"] - 1e-9
