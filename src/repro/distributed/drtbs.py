"""D-R-TBS — distributed R-TBS on Spark (Sec. 5).

R-TBS over a Spark reservoir. The driver holds the O(1) scalar state
(total weight ``W``, sample weight ``C``, the single partial item) and
runs the serial sampler's Algorithms 2 and 3 unchanged; they reach the
full items only through the reservoir operations (``count``,
``insert_all``, ``insert_rows``, ``keep_random``, ``extract_one``,
``replace_random``, ``clear``) of a co-partitioned or simulated
key-value reservoir (see ``repro.distributed.reservoir``). The key-value
store runs them as Spark jobs. The co-partitioned reservoir composes
them on the driver and runs a Spark job only when it merges; ``advance``
adds one to size each non-empty batch. A batch that arrives as a
checkpoint already written (``localCheckpoint(eager=True)``) is sized and
stored as it is, so its rows are held once in the block manager.
"""
from __future__ import annotations

from typing import Any, Mapping

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.latent import LatentSample
from repro.core.rtbs import RTBS
from repro.distributed import reservoir
from repro.distributed.common import materialized


class DRTBS(RTBS):
    """Distributed reservoir-based time-biased sampler.

    Parameters
    ----------
    storage:  ``"cp"`` (co-partitioned reservoir) or ``"kv"`` (simulated
              key-value store).
    strategy: for ``cp`` storage — ``"cent"`` or ``"dist"`` decisions.
    retrieval: for ``kv`` storage — ``"rj"`` (repartition join) or
              ``"cj"`` (co-located join) insert-item retrieval.

    The driver's draws (Alg. 3's ``U``, Alg. 2's ``m``, realization) come
    from ``seed``, the reservoir's from ``seed + 1``.
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
        super().__init__(lam, n, seed)
        self.spark = spark
        if storage == "cp":
            full = reservoir.CoPartitionedReservoir(
                spark,
                strategy=strategy,
                seed=seed + 1,
                target_partitions=target_partitions,
            )
        elif storage == "kv":
            full = reservoir.KVReservoir(
                spark,
                retrieval=retrieval,
                seed=seed + 1,
                target_partitions=target_partitions,
            )
        else:
            raise ValueError(f"unknown storage {storage!r}")
        self.latent = LatentSample(full)

    @property
    def reservoir(self):
        """The Spark reservoir holding the full items."""
        return self.latent.full

    @property
    def partial(self) -> Mapping[str, Any] | None:
        """The partial item, a row as a mapping, or None. A co-partitioned
        reservoir's is a ``reservoir.LazyRow``: its values are read from
        Spark only when something reads them."""
        return self.latent.partial

    def advance(self, batch_df: DataFrame, dt: float = 1.0) -> None:
        """Process one micro-batch. The batch DataFrame must be
        deterministic under re-evaluation (e.g. created from local data
        or a checkpointed parent). It is sized once, per partition, as the
        paper's driver aggregates local batch sizes; the sizes give ``b``
        and are handed to the reservoir with the batch."""
        # The batch's partitions must be pinned for the sizes and every
        # later pass. A checkpoint already written pins them, and becomes
        # the piece as it is. Any other frame gets a lazy local checkpoint,
        # which the sizing pass materializes: Spark's optimizer would
        # otherwise evaluate spark_partition_id() over a frame of local
        # data on the driver, as if it were one partition.
        if not materialized(batch_df):
            batch_df = batch_df.localCheckpoint(eager=False)
        # Looked up on the module at call time, so a wrapper installed on
        # ``reservoir.partition_sizes`` (tbsbench --trace 1) sees this call.
        self._advance(batch_df, reservoir.partition_sizes(batch_df), dt)

    def sample_pandas(self, rng: np.random.Generator | None = None):
        """Realize S_t as a pandas DataFrame (eq. (2)) in one Spark job: a
        drawn partial item is realized in that job with the full items,
        whether or not its values were read before, so the sample's dtypes
        are those Spark gives all of its rows."""
        if self.latent.draw_partial(rng if rng is not None else self.rng):
            return self.reservoir.to_pandas(self.partial)
        return self.reservoir.to_pandas()
