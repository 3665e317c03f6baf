"""D-T-TBS — distributed T-TBS on Spark (Sec. 5.1).

Embarrassingly parallel: each round every partition of the current
sample is thinned with probability ``p = e^{-λ}`` and every partition of
the incoming batch is subsampled at rate ``q = n(1-e^{-λ})/b``; the two
are unioned. No coordination, no counts, no shuffles — which is why it
is the fastest implementation in Fig. 7 (and why it inherits T-TBS's
weak sample-size control).
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame, SparkSession

from repro.core.ttbs import rates
from repro.distributed.common import _rand_seed, num_partitions


class DTTBS:
    """Distributed targeted-size time-biased sampler."""

    def __init__(
        self,
        spark: SparkSession,
        lam: float,
        n: int,
        b: float,
        *,
        seed: int = 0,
        target_partitions: int | None = None,
    ):
        self.spark = spark
        self.lam = float(lam)
        self.n = int(n)
        self.p, self.q = rates(lam, n, b)
        self.seed = seed
        self.round = 0
        self.df: DataFrame | None = None
        self.P = target_partitions or spark.sparkContext.defaultParallelism

    def advance(self, batch_df: DataFrame, dt: float = 1.0) -> None:
        self.round += 1
        p_eff = math.exp(-self.lam * dt)
        # Spark seeds partition i with seed + i, so the two passes' seeds
        # are drawn from (seed, pass) rather than counted up from seed.
        accepted = batch_df.sample(
            withReplacement=False,
            fraction=min(1.0, self.q),
            seed=_rand_seed(self.seed, 2 * self.round),
        )
        if self.df is None:
            df = accepted
        else:
            retained = self.df.sample(
                withReplacement=False,
                fraction=min(1.0, p_eff),
                seed=_rand_seed(self.seed, 2 * self.round + 1),
            )
            df = retained.unionByName(accepted)
        if num_partitions(df) > 2 * self.P:
            df = df.coalesce(self.P)  # narrow merge only
        self.df = df.localCheckpoint(eager=True)

    def sample_pandas(self):
        import pandas as pd

        return self.df.toPandas() if self.df is not None else pd.DataFrame()
