"""Reproduction of "Mining Density Contrast Subgraphs" (ICDE 2018).

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured tables. Subpackages: ``core`` (the paper's
algorithms), ``graph`` (Spark graph substrate), ``graphgen`` (synthetic
dataset generators), ``baselines`` (EgoScan), ``tables`` (one harness
per group of tables that share their solves).
"""
