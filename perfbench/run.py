"""DCS benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload dm-dense --seed 0 --seconds 20 --trace 0

One local SparkSession builds the workload's difference graphs from the
seeded generators (set-up, repeated ``SETUP_ROUNDS`` times), then a single
driver thread runs the workload's solver battery pass after pass (closed
loop) for ``--seconds``. Every output is checked afterwards. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). See ``perfbench/README.md``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as close as Python allows

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"  # Spark scratch space, trace and fingerprint files
SPARK_LOCAL = OUT_DIR / f"spark-local-{os.getpid()}"
SETUP_ROUNDS = 3
CORES = min(4, os.cpu_count() or 1)
# Timed solvers. The baselines (EgoScan, SEA+Refine) run untimed in the
# pass; their cost varies too much between seeds for an end-to-end bound
# and is reported per layer by the traced run.
SOLVERS = ("dcsad", "dcsga", "topk")
MIN_SOLVE_S = 0.1
MAX_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_spark():
    """One local[<=4] SparkSession whose scratch files stay in OUT_DIR."""
    local = SPARK_LOCAL
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory 2g "
        f"--driver-java-options -Djava.io.tmpdir={local} "
        f"--conf spark.local.dir={local} "
        "--conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false "
        "--conf spark.driver.host=127.0.0.1 "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM process to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


@contextmanager
def job_group(spark, group: str, jobs: dict | None):
    """Tag the Spark jobs of a layer; count them into ``jobs`` if given."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        sc.setJobGroup("perfbench-idle", "perfbench-idle")
        if jobs is not None:
            layer = group.rsplit("-", 1)[0]
            jobs[layer] = jobs.get(layer, 0) + len(
                sc.statusTracker().getJobIdsForGroup(group))


def setup_round(spark, wl, seed: int, rnd: int, tracer=None) -> tuple:
    """Build, materialise and collect every graph of the workload once.

    Returns (graphs, wall seconds, Spark job counts per layer or None).
    """
    from workloads import Graph, dataset, pipelines

    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    jobs = {} if tracer is not None else None
    t0 = time.perf_counter()
    built = []
    with span("build"), job_group(spark, f"build-{rnd}", jobs):
        for pl in pipelines(spark, wl, seed):
            base = pl.base.localCheckpoint(eager=True)
            for cfg, transform in pl.configs.items():
                # Sorted partitions give the same collect order every run,
                # so driver-side tie-breaks and counters repeat exactly.
                edges = (transform(base).sortWithinPartitions("src", "dst")
                         .localCheckpoint(eager=True))
                built.append((pl, cfg, edges))
    graphs = []
    with span("local.collect"), job_group(spark, f"collect-{rnd}", jobs):
        for pl, cfg, edges in built:
            ds = dataset(pl, cfg, edges)
            ds.local  # noqa: B018 - collects the LocalGraph
            graphs.append(Graph(f"{pl.family}/{cfg}", ds))
    return graphs, time.perf_counter() - t0, jobs


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python dict and float loop.

    The loop does the same kind of work as the driver-side solvers but
    none of the program's, so its time tracks only the machine's current
    speed. On a shared host that speed drifts by up to 2x over minutes,
    which raw solve times cannot tell apart from a change to the program.
    """
    t = time.perf_counter()
    acc: dict = {}
    for i in range(100_000):
        k = i % 1024
        acc[k] = acc.get(k, 0.0) + i * 0.5
    return time.perf_counter() - t


def _timed(fn, repeat: bool) -> tuple:
    """(result, seconds per call, seconds of the first call) of ``fn()``.

    With ``repeat``, a cheap solve runs again until it has taken
    ``MIN_SOLVE_S`` in total or ran ``MAX_REPEATS`` times, and the mean is
    returned: a single call of a few milliseconds is mostly timer and
    scheduler noise. Traced passes do not repeat, so their counters do not
    depend on the machine's speed; the first call's time is what a traced
    call is compared with.
    """
    calls, total = 0, 0.0
    while True:
        t = time.perf_counter()
        res = fn()
        took = time.perf_counter() - t
        if not calls:
            first = took
        total += took
        calls += 1
        if not repeat or total >= MIN_SOLVE_S or calls == MAX_REPEATS:
            return res, total / calls, first


def solve_pass(graphs, wl, repeat: bool = True) -> tuple:
    """One closed-loop pass of the solver battery over every graph.

    The calibration loop runs before the first graph and after each one.
    A graph's solve times are divided by the mean of the two calibrations
    around them, which tracks the machine's speed at that moment.

    Returns ({solver: seconds}, {solver: calibration units}, {solver:
    calibration units of the first call}, median calibration seconds,
    {(solver, graph): result}); sums over graphs.
    """
    from repro.baselines.egoscan import egoscan
    from repro.core.dcsad import dcs_greedy
    from repro.core.newsea import dedup_cliques, newsea, sea_refine_full, \
        seacd_refine_full

    def topk(gdp):
        full = seacd_refine_full(gdp)
        return full, dedup_cliques(full.cliques)[:5]

    secs = dict.fromkeys(SOLVERS, 0.0)
    refs = dict.fromkeys(SOLVERS, 0.0)
    firsts = dict.fromkeys(SOLVERS, 0.0)
    cals = [calibration_s()]
    out = {}
    for g in graphs:
        gd = g.ds.local
        gdp = gd.positive_part()
        took, took1 = {}, {}
        out["dcsad", g.name], took["dcsad"], took1["dcsad"] = _timed(
            lambda: dcs_greedy(gd), repeat)
        out["dcsga", g.name], took["dcsga"], took1["dcsga"] = _timed(
            lambda: newsea(gd.positive_part()), repeat)
        out["topk", g.name], took["topk"], took1["topk"] = _timed(
            lambda: topk(gdp), repeat)
        if g.name in wl.baselines_on:
            out["egoscan", g.name] = egoscan(gd)
            out["sea", g.name] = sea_refine_full(gdp)

        cals.append(calibration_s())
        cal = (cals[-2] + cals[-1]) / 2
        for k, v in took.items():
            secs[k] += v
            refs[k] += v / cal
            firsts[k] += took1[k] / cal
    return secs, refs, firsts, statistics.median(cals), out


def _ref_median(passes, solver: str, first: bool = False) -> float:
    """Median over passes of a solver's time in calibration-loop units,
    per call or, with ``first``, of each solve's first call."""
    return statistics.median([p[2 if first else 1][solver] for p in passes])


def fingerprint_file(workload: str, directory: pathlib.Path = HERE):
    return directory / f"fingerprints-{workload}.json"


def load_fingerprints(workload: str) -> dict:
    path = fingerprint_file(workload)
    return json.loads(path.read_text()) if path.exists() else {}


def save_fingerprints(workload: str, first: dict) -> None:
    """Write a run's first-pass fingerprints to the git-ignored OUT_DIR.

    Copying the file into ``perfbench/`` makes it the workload's seed-0
    reference; do so only after a run whose claims all pass.
    """
    table: dict = {}
    for (solver, name), fp in sorted(first.items()):
        table.setdefault(name, {})[solver] = fp
    OUT_DIR.mkdir(exist_ok=True)
    fingerprint_file(workload, OUT_DIR).write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")


def run(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    spark = start_spark()
    try:
        spark_up = time.perf_counter() - _T0
        return measure(spark, spark_up, wl, args)
    finally:
        stop_spark(spark)
        shutil.rmtree(SPARK_LOCAL, ignore_errors=True)


def measure(spark, spark_up: float, wl, args) -> dict:
    from checks import Verifier
    from tracing import Instrumentation, Tracer

    trace = bool(args.trace)
    # Set-up: round 0 is cold. Traced runs trace round 1 only, so the
    # warm untraced round 2 gives the set-up tracing overhead.
    rounds = []
    setup_tracer = Tracer() if trace else None
    for rnd in range(SETUP_ROUNDS):
        tr = setup_tracer if trace and rnd == 1 else None
        with Instrumentation(tr) if tr is not None else nullcontext():
            graphs, secs, jobs = setup_round(spark, wl, args.seed, rnd, tr)
        rounds.append(secs)
        if tr is not None:
            setup_jobs, traced_setup = jobs, secs

    verifier = Verifier(
        graphs, load_fingerprints(wl.name) if args.seed == 0 else None)
    # Passes as (seconds, calibration units, first-call calibration units,
    # calibration s, Tracer or None).
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    # A traced run makes at least two traced passes, whose counters must
    # repeat exactly.
    while (time.perf_counter() < deadline or not plain
           or (trace and len(traced) < 2)):
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            with Instrumentation(tracer):
                *timings, out = solve_pass(graphs, wl, repeat=False)
            traced.append((*timings, tracer))
        else:
            *timings, out = solve_pass(graphs, wl)
            plain.append((*timings, None))
        verifier.check(out)
        del out

    if args.seed == 0:
        save_fingerprints(wl.name, verifier.first)
    if trace:
        verifier.check_counters([p[-1].counters for p in traced])
    for m in verifier.messages:
        print(f"CHECK FAILED {m}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(graphs, setup_tracer, setup_jobs, traced)
        for k in SOLVERS:
            # Traced passes call each solve once, so both sides use the
            # time of each solve's first call.
            metrics[f"overhead.{k}_ref"] = (
                _ref_median(traced, k, first=True)
                - _ref_median(plain, k, first=True), "ref")
        metrics["overhead.setup_s"] = (traced_setup - rounds[2], "s")
        write_trace(wl.name, args.seed, setup_tracer, traced[-1][-1])
        note = f"{len(traced)} traced + {len(plain)} untraced passes"
    else:
        metrics = {"setup_s": (spark_up + statistics.median(rounds), "s")}
        for k in SOLVERS:
            metrics[f"{k}_ref"] = (_ref_median(plain, k), "ref")
        metrics["driver_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        note = f"{len(plain)} passes"

    print(f"# workload={wl.name} seed={args.seed} {note}; "
          f"setup rounds {[round(r, 2) for r in rounds]} s; "
          f"Spark up {spark_up:.2f} s")
    print("# median seconds per pass: " + ", ".join(
        f"{k} {statistics.median([p[0][k] for p in plain]):.4g}" for k in SOLVERS)
        + f"; calibration {statistics.median([p[3] for p in plain]) * 1e3:.3g} ms")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(graphs, setup_tracer, setup_jobs: dict, traced) -> dict:
    """Per-layer numbers: times are medians over traced passes; counters
    come from one pass and must repeat exactly in every traced pass."""
    from tracing import durations, self_times

    m: dict = {}
    m["build.wall_s"] = (sum(durations(setup_tracer.spans, "build")), "s")
    m["build.spark_jobs"] = (setup_jobs.get("build", 0), "count")
    # The built edges are canonical (no duplicates, zero weights or
    # self-loops), so the build produced exactly the collected edges.
    edges = sum(g.ds.local.m for g in graphs)
    m["build.edges"] = (edges, "count")
    m["local.collect_s"] = (
        sum(durations(setup_tracer.spans, "local.collect")), "s")
    m["local.collect_spark_jobs"] = (setup_jobs.get("collect", 0), "count")
    m["local.edges"] = (edges, "count")

    per_pass = []
    for *_, cal, tracer in traced:
        selfs = self_times(tracer.spans)
        spans = tracer.spans
        init = [d * 1e3 for d in durations(spans, "seacd")]
        q = statistics.quantiles(init, n=100) if len(init) > 1 else [0.0] * 99
        per_pass.append({
            "local.positive_part_s": sum(durations(spans, "local.positive_part")),
            "kbounds.mu_s": sum(durations(spans, "kbounds.mu")),
            "cd.local_kkt.self_s": selfs.get("cd.local_kkt", 0.0),
            "expansion.self_s": selfs.get("expansion", 0.0),
            "seacd.self_s": selfs.get("seacd", 0.0),
            "seacd.init_p50_ms": q[49],
            "seacd.init_p99_ms": q[98],
            "refine.self_s": selfs.get("refine", 0.0),
            "newsea.self_s": selfs.get("newsea", 0.0),
            "topk.self_s": selfs.get("topk.full_init", 0.0),
            "topk.dedup_s": sum(durations(spans, "topk.dedup")),
            "sea.self_s": selfs.get("sea", 0.0) + selfs.get("sea.replicator", 0.0),
            "greedy.peel_s": sum(durations(spans, "greedy.peel")),
            "dcsad.self_s": selfs.get("dcsad", 0.0),
            "egoscan.wall_s": sum(durations(spans, "egoscan")),
            "sea_refine.wall_s": sum(durations(spans, "sea_refine")),
            "calibration_ms": cal * 1e3,
        })
    units = {k: ("ms" if k.endswith("_ms") else "s") for k in per_pass[0]}
    for k in per_pass[0]:
        m[k] = (statistics.median([p[k] for p in per_pass]), units[k])

    counters = traced[0][-1].counters
    stable = all(t.counters == counters for *_, t in traced)
    for name in COUNTERS:
        m[name] = (counters[name], "count")
    starts = counters["newsea.starts"]
    m["newsea.pruned_frac"] = (
        (starts - counters["newsea.inits_run"]) / starts if starts else 0.0,
        "ratio")
    m["trace.counters_stable"] = (int(stable), "bool")
    m["trace.spans_per_pass"] = (len(traced[0][-1].spans), "count")
    return m


COUNTERS = (
    "newsea.inits_run",
    "cd.local_kkt.calls", "cd.local_kkt.steps", "cd.local_kkt.capped",
    "expansion.calls", "expansion.candidates",
    "seacd.calls", "seacd.outer_iters", "seacd.expansion_errors",
    "seacd.capped",
    "refine.calls", "refine.merges",
    "topk.cliques",
    "sea.calls", "sea.replicator_iters", "sea.expansion_errors", "sea.capped",
    "greedy.peel_calls",
    "egoscan.size",
)


def write_trace(workload: str, seed: int, setup_tracer, pass_tracer) -> None:
    """Write the traced set-up round and the last traced pass as JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        name: [[s.name, s.start, s.end, s.parent] for s in t.spans]
        for name, t in (("setup", setup_tracer), ("pass", pass_tracer))
    }
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: {src}/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
