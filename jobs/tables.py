"""Print the paper's Tables II–XIV (paper-vs-measured diff: EXPERIMENTS.md).

    python jobs/tables.py [TABLE ...] [--scale test|bench]

Each TABLE is a key of :data:`TABLES`; with none given, every table runs
in paper order. Each block is printed under its title through
:func:`repro.tables.common.fmt_table`; ``bench_tables.txt`` is the
``--scale bench`` output of a full run. Works under ``spark-submit`` too.
"""
from __future__ import annotations

import argparse
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/src")

from pyspark.sql import SparkSession  # noqa: E402

from repro.tables import (  # noqa: E402
    table02,
    table03_04,
    table05_06,
    table07,
    table08_09,
    table10_13,
)
from repro.tables.common import fmt_table  # noqa: E402

# key -> (harness(spark, scale), [(title, columns)] with one entry per
# block; a harness with several blocks returns a tuple of row lists).
TABLES = {
    "02": (table02.run,
           [("Table II: difference graph statistics", table02.COLUMNS)]),
    "03_04": (table03_04.run,
              [("Table III: co-author groups", table03_04.COLUMNS_T3),
               ("Table IV: co-author group info", table03_04.COLUMNS_T4)]),
    "05": (table05_06.run_table5,
           [("Table V: top-5 emerging/disappearing topics",
             table05_06.COLUMNS)]),
    "06": (table05_06.run_table6,
           [("Table VI: top-5 topics per single graph", table05_06.COLUMNS)]),
    "07": (table07.run,
           [("Table VII: DCSGA running time + SEA errors", table07.COLUMNS)]),
    "08_09": (table08_09.run,
              [("Table VIII: EgoScan subgraphs", table08_09.COLUMNS_T8),
               ("Table IX: total edge weight difference",
                table08_09.COLUMNS_T9)]),
    "10": (lambda spark, scale:
           table10_13.run_avg_degree(spark, ["wiki"], scale),
           [("Table X: DCSAD on Wiki", table10_13.COLUMNS_AD)]),
    "11": (lambda spark, scale:
           table10_13.run_affinity(spark, ["wiki"], scale),
           [("Table XI: DCSGA on Wiki", table10_13.COLUMNS_GA)]),
    "12": (lambda spark, scale:
           table10_13.run_avg_degree(spark, ["movie", "book"], scale),
           [("Table XII: DCSAD on Douban", table10_13.COLUMNS_AD)]),
    "13": (lambda spark, scale:
           table10_13.run_affinity(spark, ["movie", "book"], scale),
           [("Table XIII: DCSGA on Douban", table10_13.COLUMNS_GA)]),
    "14": (lambda spark, scale:
           table10_13.run_affinity(spark, ["dblpc", "actor"], scale),
           [("Table XIV: DCSGA on DBLP-C/Actor", table10_13.COLUMNS_GA)]),
}


def session() -> SparkSession:
    return (
        SparkSession.builder.appName("tables")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def _table(key: str) -> str:
    # A type check, not ``choices=``: Python 3.11's argparse rejects the
    # empty default list of an ``nargs="*"`` positional that has choices.
    if key not in TABLES:
        raise argparse.ArgumentTypeError(
            f"unknown table {key!r} (choose from {', '.join(TABLES)})")
    return key


def main(argv: list | None = None) -> None:
    ap = argparse.ArgumentParser(description="Print the paper's tables.")
    ap.add_argument("tables", nargs="*", type=_table, metavar="TABLE",
                    help="table keys to run (default: all, in paper order)")
    ap.add_argument("--scale", choices=["test", "bench"], default="bench")
    args = ap.parse_args(argv)
    spark = session()
    for key in args.tables or TABLES:
        harness, blocks = TABLES[key]
        out = harness(spark, args.scale)
        outs = out if isinstance(out, tuple) else (out,)
        for (title, columns), rows in zip(blocks, outs, strict=True):
            print(f"\n== {title} ==")
            print(fmt_table(rows, columns), flush=True)


if __name__ == "__main__":
    main()
