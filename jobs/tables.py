"""Print the paper's Tables II–XIV (paper-vs-measured diff: EXPERIMENTS.md).

    python jobs/tables.py [TABLE ...] [--scale test|bench]

Each TABLE is a key of :data:`TABLES`; with none given, every table runs
in paper order, except that VIII and IX print right after IV: key
``03_04_08_09`` solves each DBLP graph once for all four. Each block is
printed under its title through :func:`repro.tables.common.fmt_table`;
``bench_tables.txt`` is the ``--scale bench`` output of a full run. Works
under ``spark-submit`` too.
"""
from __future__ import annotations

import argparse
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/src")

from repro.datasets import spark_session  # noqa: E402
from repro.tables import (  # noqa: E402
    dblp,
    table02,
    table05_06,
    table07,
    table10_13,
)
from repro.tables.common import fmt_table  # noqa: E402

# key -> (harness(spark, scale), [(title, columns)] with one entry per
# block; a harness with several blocks returns a tuple of row lists).
TABLES = {
    "02": (table02.run,
           [("Table II: difference graph statistics", table02.COLUMNS)]),
    "03_04_08_09": (dblp.run,
                    [("Table III: co-author groups", dblp.COLUMNS_T3),
                     ("Table IV: co-author group info", dblp.COLUMNS_T4),
                     ("Table VIII: EgoScan subgraphs", dblp.COLUMNS_T8),
                     ("Table IX: total edge weight difference",
                      dblp.COLUMNS_T9)]),
    "05": (table05_06.run_table5,
           [("Table V: top-5 emerging/disappearing topics",
             table05_06.COLUMNS)]),
    "06": (table05_06.run_table6,
           [("Table VI: top-5 topics per single graph", table05_06.COLUMNS)]),
    "07": (table07.run,
           [("Table VII: DCSGA running time + SEA errors", table07.COLUMNS)]),
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
    spark = spark_session()
    for key in args.tables or TABLES:
        harness, blocks = TABLES[key]
        out = harness(spark, args.scale)
        outs = out if isinstance(out, tuple) else (out,)
        for (title, columns), rows in zip(blocks, outs, strict=True):
            print(f"\n== {title} ==")
            print(fmt_table(rows, columns), flush=True)


if __name__ == "__main__":
    main()
