"""Reproduction of "Mining Density Contrast Subgraphs" (ICDE 2018).

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured tables. Subpackages: ``core`` (the paper's
algorithms), ``graph`` (the Spark difference graphs and the driver
``LocalGraph``), ``graphgen`` (synthetic dataset generators),
``baselines`` (EgoScan), ``tables`` (one harness per table or group of
tables printed together; Table VII re-solves graphs that other harnesses
solve).
"""
