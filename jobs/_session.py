"""Shared SparkSession builder for spark-submit entrypoints.

Jobs that only need the pure-Python samplers import nothing from here;
the Spark-backed jobs (runtime/scale-up) call ``get_spark()``. The
session is configured like the test suite's (conftest.py): local master,
Arrow transfers on, broadcast joins off unless a query hints one. Two
settings differ: 16 shuffle partitions (``SPARK_SHUFFLE_PARTITIONS``;
the tests use 64), and a 16g driver unless ``SPARK_DRIVER_MEM`` says
otherwise (the tests derive theirs from the container's memory limit).
"""
import os


def get_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
