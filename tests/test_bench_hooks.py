"""The names ``tbsbench --trace 1`` wraps by attribute.

The benchmark records per-layer spans by replacing these functions and
methods with wrappers; a renamed or removed one makes a traced run
crash, and a call that bypasses the module attribute goes unrecorded.
"""
import ast
import pathlib

import pandas as pd

from repro.core import rtbs
from repro.datagen.gaussian_mixture import GaussianMixtureStream
from repro.distributed import DRTBS, reservoir
from repro.experiments import harness
from repro.ml.knn import KNNClassifier

RESERVOIR_OPS = (
    "replace_random", "insert_all", "keep_random", "extract_one", "insert_rows", "clear",
)
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "tbsbench" / "workloads.py"


def test_wrapped_names_exist():
    for name in ("partition_sizes", "central_positions", "distributed_counts"):
        assert callable(getattr(reservoir, name)), name
    for op in RESERVOIR_OPS:
        assert callable(getattr(reservoir.CoPartitionedReservoir, op)), op
    assert callable(DRTBS.advance)
    # serial layers, wrapped on rtbs-bursty and knn-prequential
    for owner, name in (
        (rtbs.RTBS, "advance"),
        (rtbs.RTBS, "sample"),
        (rtbs, "downsample"),
        (KNNClassifier, "fit"),
        (KNNClassifier, "predict"),
        (harness, "run_prequential"),
        (harness, "build_stream"),
        (GaussianMixtureStream, "batch"),
    ):
        assert callable(getattr(owner, name)), name


def test_benchmark_wraps_these_ops():
    tree = ast.parse(WORKLOADS.read_text())
    (ops,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "RESERVOIR_OPS" for t in node.targets)
    ]
    assert tuple(ops) == RESERVOIR_OPS


def test_advance_sizes_batch_once_through_module(spark, monkeypatch):
    calls = []
    orig = reservoir.partition_sizes

    def counted(df):
        calls.append(df)
        return orig(df)

    monkeypatch.setattr(reservoir, "partition_sizes", counted)
    d = DRTBS(spark, 0.1, 20, seed=0, storage="cp", strategy="dist")
    for t, b in enumerate([30, 12]):
        batch = spark.createDataFrame(
            pd.DataFrame({"t": [t] * b, "i": list(range(b))}), schema="t long, i long"
        )
        d.advance(batch)
        assert len(calls) == t + 1
