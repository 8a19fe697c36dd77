import os
import sys


# The Spark driver heap: SPARK_DRIVER_MEM, else 2g, the benchmark's driver
# size, which holds every test-scale graph. spark.driver.memory is read at
# JVM launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS
# before pyspark is imported anywhere — this runs at conftest import,
# which pytest loads before any test module.
_DRIVER_MEM_SRC = "env" if os.environ.get("SPARK_DRIVER_MEM") else "default"
if _DRIVER_MEM_SRC == "default":
    os.environ["SPARK_DRIVER_MEM"] = "2g"
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch); the session configs are those of
    :func:`repro.datasets.spark_session`, as in ``jobs/tables.py``.
    """
    from repro.datasets import spark_session

    s = spark_session()
    # One line in the test output: the driver heap and where it came from.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={_DRIVER_MEM_SRC}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


@pytest.fixture(scope="session")
def dcsga_runs(spark):
    """``runs(family, config, dense=False)``: the DCSGA solvers on a
    test-scale config's G_D+ in one gradient store.

    Returns [full-init SEACD+Refine, NewSEA], plus SEA+Refine on the DBLP
    and DM families. Each (config, store) is solved once per session, so
    the store-equivalence test and the paper-claims test share the runs.
    """
    from repro.core.newsea import newsea, sea_refine_full, seacd_refine_full
    from repro.datasets import get_dataset
    from tests.helpers import with_store

    cache: dict = {}

    def runs(family: str, config: str, dense: bool = False) -> list:
        key = (family, config, dense)
        if key not in cache:
            gd = get_dataset(spark, family, config, "test").local
            g = with_store(gd.positive_part(), dense)
            solvers = [seacd_refine_full, newsea]
            if family in ("dblp", "dm"):
                solvers.append(sea_refine_full)
            cache[key] = [solve(g) for solve in solvers]
        return cache[key]

    return runs
