"""Tests for D-T-TBS on Spark (embarrassingly parallel T-TBS)."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.distributed import DTTBS

SCHEMA = "t long, i long"


def make_batch(spark, t, size):
    return spark.createDataFrame(
        pd.DataFrame({"t": [t] * size, "i": list(range(size))}), schema=SCHEMA
    )


class TestDTTBS:
    def test_invalid_params(self, spark):
        with pytest.raises(ValueError):
            DTTBS(spark, -0.1, 10, 10)
        with pytest.raises(ValueError):
            DTTBS(spark, 0.5, 100, 1)  # b < n(1-e^-λ)

    def test_size_hovers_near_target(self, spark):
        lam, n, b = 0.2, 40, 30
        d = DTTBS(spark, lam, n, b, seed=0)
        sizes = []
        for t in range(25):
            d.advance(make_batch(spark, t, b))
            sizes.append(len(d.sample_pandas()))
        import numpy as np

        # equilibrium mean is n; allow generous tolerance for 25 rounds
        assert abs(np.mean(sizes[10:]) - n) < 12

    def test_sample_is_subset_of_stream(self, spark):
        d = DTTBS(spark, 0.3, 20, 15, seed=1)
        seen = set()
        for t in range(6):
            d.advance(make_batch(spark, t, 15))
            seen |= {(t, i) for i in range(15)}
            got = {(r.t, r.i) for r in d.sample_pandas().itertuples()}
            assert got <= seen

    def test_old_items_decay_away(self, spark):
        lam = 0.5
        d = DTTBS(spark, lam, 30, 25, seed=2)
        for t in range(14):
            d.advance(make_batch(spark, t, 25))
        pdf = d.sample_pandas()
        # items older than ~8 steps survive w.p. < e^{-4} ≈ 0.018 each
        old = pdf[pdf["t"] < 6]
        assert len(old) <= 6

    def test_empty_batch_ok(self, spark):
        d = DTTBS(spark, 0.2, 10, 8, seed=3)
        d.advance(make_batch(spark, 0, 8))
        k0 = len(d.sample_pandas())
        d.advance(make_batch(spark, 1, 0))
        assert len(d.sample_pandas()) <= k0

    def test_partitions_draw_independent_streams(self, spark):
        """Spark seeds partition i's Bernoulli sampler with seed + i. With
        seeds counted up from the sampler's seed (2·round for the batch),
        round r's partition 2 would accept exactly the offsets that round
        r + 1's partition 0 accepts. At q = 1/2 over 64-row partitions,
        two independent accept sets coincide with probability 2^-64."""
        parts, rows = 4, 64
        d = DTTBS(spark, math.log(2), parts * rows, parts * rows, seed=0)
        assert d.q == pytest.approx(0.5)
        accepted = {}
        for t in range(3):
            d.advance(spark.range(parts * rows, numPartitions=parts).withColumn("t", F.lit(t)))
            ids = d.sample_pandas().query("t == @t")["id"]
            for pid in range(parts):
                accepted[(t, pid)] = frozenset(ids[ids // rows == pid] % rows)
        assert len(set(accepted.values())) == len(accepted), accepted
