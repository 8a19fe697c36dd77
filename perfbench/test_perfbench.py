"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    SPARK_DRIVER_MEM=2g PYTHONPATH=src python3 -m pytest perfbench -q

The Spark-backed tests use the session fixture of the root ``conftest.py``;
the schema test runs the benchmark as a subprocess.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pandas as pd
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import Verifier, fingerprint, fingerprint_diff  # noqa: E402
from repro.datasets import _SCALES, DCSDataset, get_dataset  # noqa: E402
from repro.graph.local import from_edge_pandas  # noqa: E402
from run import solve_pass  # noqa: E402
from tracing import Instrumentation, Span, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Graph,
    Workload,
    _dblp,
    _dm,
    _douban,
)


def test_self_time_subtracts_merged_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] covered once
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 7.0, 8.0, 0),
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st["a"] == pytest.approx(3.0 - 1.0)
    assert st["b"] == pytest.approx(3.0 + 1.0)
    assert st["leaf"] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent():
    spans = [Span("p", 0.0, 2.0, None), Span("c", 1.5, 3.0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.5)


def _toy_graph() -> Graph:
    """Two positive cliques joined by negative edges, plus a pendant."""
    rows = [(0, 1, 3.0), (0, 2, 2.0), (1, 2, 2.5), (3, 4, 1.0), (3, 5, 1.0),
            (4, 5, 1.0), (2, 3, -1.0), (1, 4, -0.5), (5, 6, 0.5)]
    pdf = pd.DataFrame(rows, columns=["src", "dst", "weight"])
    ds = DCSDataset("toy", "cfg", "unit", None, 7,
                    planted={"left": [0, 1, 2], "right": [3, 4, 5]})
    ds._local = from_edge_pandas(pdf)
    return Graph("toy/cfg", ds)


_TOY_WL = Workload("toy", "unit test", (), baselines_on=("toy/cfg",))


def test_perturbed_f_is_a_failed_solve():
    g = _toy_graph()
    *_, out = solve_pass([g], _TOY_WL)
    refs = {g.name: {s: fingerprint(g.ds, s, r) for (s, _), r in out.items()}}
    clean = Verifier([g], refs)
    clean.check(out)
    assert clean.failed == 0 and clean.attempted == len(out)

    refs[g.name]["dcsga"]["f"] *= 1 + 1e-6
    perturbed = Verifier([g], refs)
    perturbed.check(out)
    assert perturbed.failed == 1
    assert any("dcsga" in m and "f:" in m for m in perturbed.messages)


def test_unstable_counters_fail_the_run():
    stable = Verifier([], None)
    stable.check_counters([{"a": 1, "b": 2}, {"a": 1, "b": 2}])
    assert (stable.attempted, stable.failed) == (1, 0)

    unstable = Verifier([], None)
    unstable.check_counters([{"a": 1, "b": 2}, {"a": 1, "b": 3}])
    assert (unstable.attempted, unstable.failed) == (1, 1)
    assert "b" in unstable.messages[0]


def test_fingerprint_tolerance_is_relative_1e9():
    ref = {"f": 23.0, "size": 4, "group": "uta-ml"}
    assert fingerprint_diff(ref, dict(ref, f=23.0 * (1 + 1e-12))) == []
    assert fingerprint_diff(ref, dict(ref, f=23.0 * (1 + 1e-8)))
    assert fingerprint_diff(ref, dict(ref, size=5))


def test_traced_counters_repeat_and_originals_restored():
    import repro.core.seacd as seacd_mod

    g = _toy_graph()
    original = seacd_mod.local_kkt
    counters = []
    for _ in range(2):
        tracer = Tracer()
        with Instrumentation(tracer):
            assert seacd_mod.local_kkt is not original
            solve_pass([g], _TOY_WL)
        counters.append(dict(tracer.counters))
    assert seacd_mod.local_kkt is original
    assert counters[0] == counters[1]
    assert counters[0]["cd.local_kkt.calls"] > 0
    assert counters[0]["sea.calls"] > 0


_FAMILY_BUILDERS = [(_dm, "dm"), (_dblp, "dblp"), (_douban, "douban")]


def _edge_set(df) -> set:
    return {(r.src, r.dst, round(r.weight, 9)) for r in df.collect()}


@pytest.mark.parametrize("build,key", _FAMILY_BUILDERS,
                         ids=[k for _, k in _FAMILY_BUILDERS])
def test_seed_zero_edges_equal_get_dataset(spark, build, key):
    for pl in build(spark, 0, _SCALES["test"][key]):
        for cfg, transform in pl.configs.items():
            ours = _edge_set(transform(pl.base))
            ref = _edge_set(get_dataset(spark, pl.family, cfg, "test").edges)
            assert ours == ref, (pl.family, cfg)


def test_seed_changes_the_inputs(spark):
    sizes = _SCALES["test"]["dblp"]
    a = _edge_set(_dblp(spark, 0, sizes)[0].base)
    b = _edge_set(_dblp(spark, 1, sizes)[0].base)
    assert a != b


@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dm-dense",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))
