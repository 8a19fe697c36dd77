"""Spark difference-graph statistics (Table II)."""
import pandas as pd
import pytest

from repro.graph.stats import difference_stats


@pytest.fixture
def edges_pdf():
    return pd.DataFrame(
        {
            "src": [0, 0, 1, 3, 5],
            "dst": [1, 2, 2, 4, 6],
            "weight": [2.0, -1.0, 3.0, 1.5, -0.5],
        }
    )


def test_stats_values(spark, edges_pdf):
    st = difference_stats(spark.createDataFrame(edges_pdf), n_vertices=10)
    assert st == {
        "n": 10, "m_pos": 3, "m_neg": 2, "max_w": 3.0, "min_w": -1.0,
        "avg_w": pytest.approx(1.0),
    }


def test_stats_empty(spark):
    empty = spark.createDataFrame(
        pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]})
    ).where("weight > 99")
    st = difference_stats(empty, n_vertices=3)
    assert st["m_pos"] == 0 and st["m_neg"] == 0
