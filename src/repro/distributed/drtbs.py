"""D-R-TBS — distributed R-TBS on Spark (Sec. 5).

The driver holds the O(1) scalar state (total weight ``W``, sample
weight ``C``, the single partial item) and coordinates per-batch
decisions exactly as Algorithm 2 prescribes; the bulk full-item state
lives in a distributed reservoir backend (co-partitioned or simulated
key-value store — see ``repro.distributed.reservoir``). Every branch of
the serial algorithm (unsaturated growth, overshoot, saturated
replacement, undershoot) is implemented distributedly, including the
latent-sample downsampling of Algorithm 3.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.distributed import reservoir
from repro.rng import make_rng, stochastic_round

_EPS = 1e-9


def _ifloor(x: float) -> int:
    return math.floor(x + _EPS)


def _ffrac(x: float) -> float:
    return max(0.0, x - _ifloor(x))


class DRTBS:
    """Distributed reservoir-based time-biased sampler.

    Parameters
    ----------
    storage:  ``"cp"`` (co-partitioned reservoir) or ``"kv"`` (simulated
              key-value store).
    strategy: for ``cp`` storage — ``"cent"`` or ``"dist"`` decisions.
    retrieval: for ``kv`` storage — ``"rj"`` (repartition join) or
              ``"cj"`` (co-located join) insert-item retrieval.
    """

    def __init__(
        self,
        spark: SparkSession,
        lam: float,
        n: int,
        *,
        storage: str = "cp",
        strategy: str = "dist",
        retrieval: str = "cj",
        seed: int = 0,
        target_partitions: int | None = None,
    ):
        if lam < 0:
            raise ValueError("decay rate must be >= 0")
        if n < 1:
            raise ValueError("max sample size must be >= 1")
        self.spark = spark
        self.lam = float(lam)
        self.n = int(n)
        self.rng = make_rng(seed)
        if storage == "cp":
            self.reservoir = reservoir.CoPartitionedReservoir(
                spark,
                strategy=strategy,
                seed=seed + 1,
                target_partitions=target_partitions,
            )
        elif storage == "kv":
            self.reservoir = reservoir.KVReservoir(
                spark,
                retrieval=retrieval,
                seed=seed + 1,
                target_partitions=target_partitions,
            )
        else:
            raise ValueError(f"unknown storage {storage!r}")
        self.partial: dict[str, Any] | None = None
        self.total_weight = 0.0  # W
        self.sample_weight = 0.0  # C

    # ------------------------------------------------------------------
    # Distributed Algorithm 3
    # ------------------------------------------------------------------
    def _downsample(self, target: float) -> None:
        C, Cp = self.sample_weight, target
        if not (0.0 < Cp < C + _EPS):
            raise ValueError(f"downsample target must satisfy 0 < C'={Cp} < C={C}")
        if Cp >= C - _EPS:
            self.sample_weight = Cp
            return
        fC, fCp = _ffrac(C), _ffrac(Cp)
        kC, kCp = _ifloor(C), _ifloor(Cp)
        U = self.rng.random()
        R = self.reservoir

        if kCp == 0:
            keep_prob = fC / C if fC > 0 else 0.0
            if U > keep_prob:
                self.partial = R.extract_one()
            R.clear()
        elif kCp == kC:
            if self.partial is None:
                raise AssertionError("case ⌊C'⌋=⌊C⌋ requires a partial item")
            rho = (1.0 - (Cp / C) * fC) / (1.0 - fCp)
            if U > rho:
                new_partial = R.extract_one()
                R.insert_rows([self.partial])
                self.partial = new_partial
        else:
            p_promote = (Cp / C) * fC
            if self.partial is not None and U <= p_promote:
                R.keep_random(kCp)
                new_partial = R.extract_one()
                R.insert_rows([self.partial])
                self.partial = new_partial
            else:
                R.keep_random(kCp + 1)
                self.partial = R.extract_one()

        self.sample_weight = Cp
        if _ffrac(Cp) <= _EPS:
            self.partial = None
            self.sample_weight = float(kCp)

    # ------------------------------------------------------------------
    # Distributed Algorithm 2
    # ------------------------------------------------------------------
    def advance(self, batch_df: DataFrame, dt: float = 1.0) -> None:
        """Process one micro-batch. The batch DataFrame must be
        deterministic under re-evaluation (e.g. created from local data
        or a checkpointed parent). It is sized once, per partition, as the
        paper's driver aggregates local batch sizes; the sizes give ``b``
        and are handed to the reservoir."""
        # A lazy local checkpoint, materialized by the sizing pass, pins the
        # batch's partitions for the sizes and every later pass. Spark's
        # optimizer would otherwise evaluate spark_partition_id() over a
        # frame of local data on the driver, as if it were one partition.
        batch_df = batch_df.localCheckpoint(eager=False)
        # Looked up on the module at call time, so a wrapper installed on
        # ``reservoir.partition_sizes`` (tbsbench --trace 1) sees this call.
        sizes = reservoir.partition_sizes(batch_df)
        b = sum(sizes)
        decay = math.exp(-self.lam * dt)
        n, R = self.n, self.reservoir

        if self.total_weight < n - _EPS:
            W = self.total_weight * decay
            if W > _EPS and W < self.sample_weight - _EPS:
                self._downsample(W)
            elif W <= _EPS:
                R.clear()
                self.partial = None
                self.sample_weight = 0.0
            W += b
            if b > 0:
                R.insert_all(batch_df, sizes)
            self.sample_weight += b
            self.total_weight = W
            if W > n + _EPS:
                self._downsample(float(n))
        else:
            W = self.total_weight * decay + b
            self.total_weight = W
            if W >= n - _EPS:
                m = stochastic_round(self.rng, b * n / W) if b else 0
                m = min(m, b, n)
                R.replace_random(m, batch_df, sizes)
            else:
                target = W - b
                self._downsample(target)
                if b > 0:
                    R.insert_all(batch_df, sizes)
                self.sample_weight = W

    # ------------------------------------------------------------------
    def sample_pandas(self, rng: np.random.Generator | None = None):
        """Realize S_t as a pandas DataFrame (eq. (2))."""
        import pandas as pd

        rng = rng if rng is not None else self.rng
        out = self.reservoir.to_pandas()
        f = _ffrac(self.sample_weight)
        if self.partial is not None and f > _EPS and rng.random() < f:
            out = pd.concat([out, pd.DataFrame([self.partial])], ignore_index=True)
        return out
