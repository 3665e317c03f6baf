"""Shape/behaviour tests for the remaining experiment drivers
(Naive Bayes E5, varying batch E2, runtime helpers E6/E7) and the
cross-process reproducibility of Table 1 (E1)."""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.naive_bayes_exp import format_naive_bayes, run_naive_bayes
from repro.experiments.runtime import format_runtime
from repro.experiments import harness
from repro.experiments.varying_batch import ratios_vs_rtbs, run_varying_batch


class TestNaiveBayesExperiment:
    def test_shape_matches_paper(self):
        """Paper Sec. 6.4: R-TBS most accurate; SW worst ES by a clear
        margin; Unif's ES close to (slightly better than) R-TBS."""
        res = run_naive_bayes(n_runs=4, seed=11)
        rt, sw, unif = res["R-TBS"], res["SW"], res["Unif"]
        assert rt[0] < sw[0] and rt[0] < unif[0]       # best accuracy
        assert sw[1] > rt[1]                            # SW least robust
        assert abs(unif[1] - rt[1]) < 0.35 * rt[1]      # Unif ES ~ R-TBS ES

    def test_format(self):
        res = run_naive_bayes(n_runs=1, seed=3)
        txt = format_naive_bayes(res)
        assert "R-TBS" in txt and "20% ES" in txt


TINY_TABLE1 = """
from repro.datagen.modes import Periodic
from repro.experiments.table1 import run_table1

res = run_table1(
    n_runs=1, lambdas=(0.07,), patterns=(Periodic(10, 10),),
    n=200, b=20, warmup=10, n_batches=25, skip=5, seed=3,
)
print(repr(sorted(res.items())))
"""


class TestTable1Reproducible:
    def test_same_output_under_different_hash_seeds(self):
        """String hashing is salted per process; Table 1's streams must
        not depend on it."""
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", TINY_TABLE1],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "R-TBS" in outs[0]


class TestVaryingBatchHelpers:
    def test_ratios_vs_rtbs(self):
        res = {
            "R-TBS λ=0.07": (10.0, 20.0),
            "SW": (12.0, 40.0),
            "Unif": (15.0, 30.0),
        }
        r = ratios_vs_rtbs(res)
        assert r["SW"] == (1.2, 2.0)
        assert r["Unif"] == (1.5, 1.5)


class TestVaryingBatchSharedStream:
    def test_schemes_of_a_run_see_one_stream(self, monkeypatch):
        """Sec. 6.2 compares the schemes on one stream: in each run,
        R-TBS, SW and Unif must get the same batches, including in the
        Uniform(0,200) regime, whose batch sizes are random."""
        calls = []
        real = harness.run_prequential

        def spy(scheme, model_factory, X, y, bounds, *args, **kwargs):
            calls.append((list(bounds), X.copy()))
            return real(scheme, model_factory, X, y, bounds, *args, **kwargs)

        monkeypatch.setattr(harness, "run_prequential", spy)
        n_runs = 2
        run_varying_batch(n_runs=n_runs, n=100, b=10, n_batches=25, seed=5)
        assert len(calls) == 2 * n_runs * 3  # regimes × runs × schemes
        uniform_sizes = {e - s for s, e in calls[0][0][100:]}
        assert len(uniform_sizes) > 1
        for i in range(0, len(calls), 3):
            (bounds, X), *others = calls[i : i + 3]
            for other_bounds, other_X in others:
                assert other_bounds == bounds
                assert np.array_equal(other_X, X)


class TestRuntimeHelpers:
    def test_format_runtime(self):
        res = {
            "Cent-KV-RJ": {"mean_s": 2.0, "min_s": 1.9, "rounds": 3},
            "Dist-CP": {"mean_s": 1.0, "min_s": 0.9, "rounds": 3},
        }
        txt = format_runtime(res)
        assert "2.00x" in txt and "1.00x" in txt

    def test_make_int_batch_partitions(self, spark):
        from repro.distributed.common import partition_sizes
        from repro.experiments.runtime import make_int_batch

        df = make_int_batch(spark, 0, 1000, 4)
        sizes = partition_sizes(df)
        assert len(sizes) == 4 and sum(sizes) == 1000

    def test_make_int_batch_deterministic(self, spark):
        from repro.experiments.runtime import make_int_batch

        a = make_int_batch(spark, 3, 100, 2, seed=5).toPandas()
        b = make_int_batch(spark, 3, 100, 2, seed=5).toPandas()
        assert np.array_equal(
            np.sort(a["key"].to_numpy()), np.sort(b["key"].to_numpy())
        )

    def test_make_int_batch_without_arrow(self, spark):
        """The same arguments build the same rows in the same partitions
        with Arrow on and off, a 0-row batch included."""
        from repro.experiments.runtime import make_int_batch

        key = "spark.sql.execution.arrow.pyspark.enabled"
        old = spark.conf.get(key)
        built = []
        try:
            for arrow in ["true", "false"]:
                spark.conf.set(key, arrow)
                built.append([make_int_batch(spark, 3, size, 4, seed=5).rdd.glom().collect() for size in (150, 0)])
        finally:
            spark.conf.set(key, old)
        assert built[0] == built[1]
        assert len(built[0][0]) == 4 and sum(map(len, built[0][0])) == 150
        assert not any(built[0][1])
