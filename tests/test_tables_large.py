"""Tables II, VII and XIV harnesses, and the DCSGA claims, Theorems 4–6
among them, on every config (test scale)."""
import pytest

from repro.core.cd import objective
from repro.core.expansion import expansion_candidates
from repro.core.kbounds import smart_init_bounds_local
from repro.core.metrics import is_positive_clique
from repro.core.seacd import seacd
from repro.datasets import all_configs, get_dataset
from repro.tables import table02, table07, table10_13
from tests.helpers import graph_from_triples

_ALL = pytest.mark.parametrize(
    "family,config", all_configs(), ids=[f"{f}-{c}" for f, c in all_configs()]
)


@pytest.fixture(scope="module")
def t2(spark):
    return table02.run(spark, scale="test")


@pytest.fixture(scope="module")
def t7_small(spark):
    # SEA+Refine on every config is the expensive part; restrict the
    # harness to two families (test_dcsga_claims_on_every_config checks
    # NewSEA and SEACD+Refine on all 16).
    small = [(f, c) for f, c in all_configs() if f in ("dblp", "dm")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table07, "all_configs", lambda: small)
        return table07.run(spark, scale="test")


@pytest.fixture(scope="module")
def t14(spark):
    return table10_13.run_affinity(spark, ["dblpc", "actor"], scale="test")


def test_table2_has_16_rows(t2):
    assert len(t2) == 16


def test_table2_edge_stats():
    g = graph_from_triples([(0, 1, 2.0), (0, 2, -1.0), (1, 2, 3.0),
                            (3, 4, 1.5), (5, 6, -0.5)])
    assert table02.edge_stats(g) == {
        "m_pos": 3, "m_neg": 2, "max_w": 3.0, "min_w": -1.0, "avg_w": 1.0,
    }


def test_table2_extremes(t2):
    by = {(r["data"], r["config"]): r for r in t2}
    assert by[("dblp", "weighted-emerging")]["max_w"] == 46.0
    assert by[("dblp", "weighted-emerging")]["min_w"] == -100.0
    assert by[("dblpc", "weighted")]["max_w"] == 400.0
    assert by[("actor", "weighted")]["max_w"] == 216.0
    assert by[("actor", "weighted")]["m_neg"] == 0  # Table II: m- = 0


def test_table2_flip_symmetry(t2):
    by = {(r["data"], r["config"]): r for r in t2}
    em = by[("dblp", "weighted-emerging")]
    dis = by[("dblp", "weighted-disappearing")]
    assert em["m_pos"] == dis["m_neg"] and em["m_neg"] == dis["m_pos"]
    assert em["max_w"] == -dis["min_w"]


def test_table2_discrete_asymmetry(t2):
    """Small positive diffs are dropped by the Discrete rule, so
    m+ < m- on the emerging side — the Table II DBLP pattern."""
    by = {(r["data"], r["config"]): r for r in t2}
    r = by[("dblp", "discrete-emerging")]
    assert r["m_pos"] < r["m_neg"]


def test_table7_newsea_fastest(t7_small):
    for r in t7_small:
        assert r["t_newsea"] <= r["t_seacd_refine"]
        assert r["t_seacd_refine"] <= r["t_sea_refine"] * 2.0


def test_table7_quality_preserved(t7_small):
    """Smart initialization never loses solution quality (Section V-D)."""
    for r in t7_small:
        assert r["f_newsea"] >= r["f_seacd"] - 1e-6


def test_table7_seacd_never_errs(t7_small):
    for r in t7_small:
        assert r["errors_seacd"] == 0


def test_table7_sea_converges_on_dblp_and_dm(t7_small):
    """SEA stagnates only on wiki, Douban and actor starts at test scale."""
    for r in t7_small:
        assert r["unconverged_sea"] == 0


def test_table14_weighted_tiny_discrete_clique(t14):
    by = {(r["data"], r["gd_type"]): r for r in t14}
    assert by[("dblpc", "weighted")]["size"] == 2  # paper: 2
    assert by[("dblpc", "weighted")]["affinity_diff"] == pytest.approx(200.0)
    assert by[("dblpc", "discrete")]["size"] == 26  # paper: 26
    assert by[("dblpc", "discrete")]["affinity_diff"] == pytest.approx(
        2 * 25 / 26, rel=1e-3
    )  # paper: 1.919
    assert by[("actor", "weighted")]["size"] == 3  # paper: 3
    assert by[("actor", "weighted")]["affinity_diff"] == pytest.approx(
        108.1, abs=0.5
    )  # paper: 108.25
    assert by[("actor", "discrete")]["size"] == 21  # paper: 21


@_ALL
def test_dcsga_claims_on_every_config(spark, dcsga_runs, family, config):
    """Zero SEACD expansion errors, every NewSEA start converged,
    f(NewSEA) >= f(full-init SEACD+Refine) and a positive-clique NewSEA
    support (Theorem 5), on the dict-store runs that test_gradient_store
    shows the dense store equals."""
    full, new = dcsga_runs(family, config)[:2]
    assert new.expansion_errors == 0 and full.expansion_errors == 0
    assert new.unconverged == 0
    assert new.f >= full.f - 1e-6
    gd = get_dataset(spark, family, config, "test").local
    assert is_positive_clique(gd, list(new.x))


@_ALL
def test_full_init_starts_stop_on_empty_z(dcsga_runs, family, config):
    """Every full-init SEACD+Refine start ends at a global KKT point
    (Theorem 4): none stops on the stagnation guard or the round cap."""
    full = dcsga_runs(family, config)[0]
    assert full.inits > 0 and full.unconverged == 0


@_ALL
def test_mu_bounds_every_full_init_clique(spark, dcsga_runs, family, config):
    """Theorem 6: f <= mu_u for every vertex u of every clique that
    full-init SEACD+Refine reaches on G_D+."""
    full = dcsga_runs(family, config)[0]
    gdp = get_dataset(spark, family, config, "test").local.positive_part()
    mu = smart_init_bounds_local(gdp)
    assert full.cliques
    for T, f, _ in full.cliques:
        assert f <= min(mu[u] for u in T) * (1 + 1e-9)


@_ALL
def test_seacd_stops_at_global_kkt_from_every_vertex(spark, family, config):
    """Theorem 4: SEACD from every vertex of G_D+ stops because Z is
    empty, never at its round cap."""
    gdp = get_dataset(spark, family, config, "test").local.positive_part()
    for u in range(gdp.n):
        if not gdp.adj[u]:
            continue
        x, p, st = seacd(gdp, u)
        assert expansion_candidates(x, p, objective(x, p)) == [], u
        assert st.outer_iters < 500, u
