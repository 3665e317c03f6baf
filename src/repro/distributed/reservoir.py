"""Distributed reservoir backends (Sec. 5.2).

A reservoir holds the full items of D-R-TBS's latent sample. Algorithms
2 and 3 (``repro.core.rtbs``, ``repro.core.downsample``) reach it only
through the reservoir operations ``count``, ``insert_all(batch, sizes)``,
``insert_rows(rows)``, ``keep_random(k)``, ``extract_one()``,
``replace_random(m, batch, sizes)`` and ``clear()``, the interface the
serial ``ListReservoir`` also has; ``to_pandas()`` realizes the items.
``count`` is kept on the driver, so reading it runs no Spark job.

Two implementations of the paper's reservoir data structure:

* ``CoPartitionedReservoir`` — the paper's recommended design: reservoir
  partitions coincide with incoming-batch partitions, inserts/deletes
  are applied locally by each worker (no shuffle). Supports both the
  *centralized* (driver-generated slot positions) and *distributed*
  (per-partition multivariate-hypergeometric counts) decision
  strategies of Sec. 5.3.

* ``KVReservoir`` — simulates an off-the-shelf distributed key-value
  store (Memcached/Redis in the paper): every item lives under a slot
  key, the store is hash-partitioned by slot, and inserts must be
  *shuffled* to their slot's partition (the simulated network I/O).
  Insert retrieval joins the batch with the driver's pick set Q on the
  row address ``monotonically_increasing_id()``, either as a repartition
  join ("RJ", a sort-merge join that shuffles the whole batch) or as a
  co-located join ("CJ", Q broadcast and each batch partition filtered
  in place — Fig. 6(a)). The join hint is the only difference.

Every pass of both runs as Spark SQL inside the JVM executors, so no
Python worker (and no ``repro`` import on a worker) is needed. Both
freeze lineage with eager ``localCheckpoint`` every round,
standing in for the paper's in-place RDD updates + checkpointing
(Appendix E).
"""
from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.distributed.common import (
    addresses,
    central_positions,
    distributed_counts,
    partition_sizes,
    position_spec,
    select,
)
from repro.rng import make_rng


class CoPartitionedReservoir:
    """Reservoir co-partitioned with incoming batches (Fig. 5(b)).

    Performance notes mirroring the paper's design rationale:

    * per-partition sizes are tracked *on the driver* and updated
      incrementally from the very decisions the driver hands out, so a
      round sends workers only counts (or positions) and every select is
      one Spark SQL pass with zero shuffles. A saturated round
      (``DRTBS.advance`` → ``replace_random``) runs 3 Spark jobs, as
      measured: 2 to size the batch (the ``groupBy``'s map and result
      stages) and 1 for the fused select over ``reservoir ∪ batch`` and
      its checkpoint. Centralized decisions with more than 64 picks add
      1 to broadcast their offset bitmaps, and a coalesce adds 1, plus 2
      for the recount;
    * the new reservoir is a lazy union of eagerly-checkpointed pieces;
      partitions are merged with a (shuffle-free) ``coalesce`` only when
      their number grows past ``4·P``, at which point sizes are
      recomputed lazily with one counting pass.

    CRITICAL evaluation-order invariant: ``spark_partition_id()`` and
    ``monotonically_increasing_id()`` take the partition index of the
    plan they are evaluated over. ``partition_sizes`` and ``select``
    project them directly over the frame they are given — the reservoir
    (a union of checkpointed pieces, or a coalesce of one) or
    ``reservoir ∪ batch`` — so a select's addresses are the partitions
    and offsets the driver sized. A select is never evaluated underneath
    a later union or coalesce: it is checkpointed eagerly the moment it
    is created, and ``coalesce`` is only applied on top of checkpointed
    scans. Over a frame of local data Spark's optimizer would evaluate
    the ids on the driver as if it were one partition, so batches arrive
    checkpointed (``DRTBS.advance``).
    """

    def __init__(
        self,
        spark: SparkSession,
        *,
        strategy: str = "dist",
        seed: int = 0,
        target_partitions: int | None = None,
    ):
        if strategy not in ("cent", "dist"):
            raise ValueError(f"unknown decision strategy {strategy!r}")
        self.spark = spark
        self.strategy = strategy
        self.rng = make_rng(seed)
        self.seed = seed
        self.op = 0  # monotone op counter: seeds the per-partition streams
        self.df: DataFrame | None = None
        self.schema = None  # the batches' schema, kept across clear()
        self._empty: pd.DataFrame | None = None  # a cleared reservoir's items
        self.count = 0
        self._sizes: list[int] | None = []
        self.P = target_partitions or spark.sparkContext.defaultParallelism

    # -- bookkeeping ---------------------------------------------------
    @staticmethod
    def _ckpt(df: DataFrame) -> DataFrame:
        return df.localCheckpoint(eager=True)

    def sizes(self) -> list[int]:
        """Per-partition row counts of the current reservoir; served
        from the driver's incremental bookkeeping when available."""
        if self._sizes is None:
            self._sizes = partition_sizes(self.df) if self.df is not None else []
        return self._sizes

    def _set_df(self, df: DataFrame | None, sizes: list[int] | None) -> None:
        self.df = df
        self._sizes = sizes
        if (
            df is not None
            and sizes is not None
            and len(sizes) > 4 * self.P
        ):
            # merge partitions without a shuffle; sizes become unknown
            # (coalesce's grouping is an implementation detail).
            self.df = self._ckpt(df.coalesce(self.P))
            self._sizes = None

    def _choice(self, sizes: list[int], k: int):
        """Per-partition positions (cent) or counts (dist) for k picks."""
        if self.strategy == "cent":
            return ("pos", central_positions(self.rng, sizes, k))
        return ("cnt", distributed_counts(self.rng, sizes, k))

    @staticmethod
    def _picked_per_partition(decision, n_parts: int) -> list[int]:
        kind, payload = decision
        if kind == "pos":
            return [len(payload.get(pid, ())) for pid in range(n_parts)]
        return [payload.get(pid, 0) for pid in range(n_parts)]

    @staticmethod
    def _spec(decision, sizes: list[int], mode: str, first_pid: int = 0) -> dict:
        """``select`` spec applying ``mode`` to a decision's picks in every
        partition, addressed from ``first_pid`` on."""
        kind, payload = decision
        if kind == "pos":
            spec = position_spec(payload, sizes, mode)
        else:
            spec = {
                pid: (mode, payload.get(pid, 0))
                for pid in range(len(sizes))
                if mode == "keep" or pid in payload
            }
        return {first_pid + pid: entry for pid, entry in spec.items()}

    def _select(self, df: DataFrame, spec: dict) -> DataFrame:
        self.op += 1
        return select(df, spec, seed=self.seed, round_no=self.op)

    # -- reservoir operations -----------------------------------------
    def insert_all(self, batch_df: DataFrame, sizes: list[int]) -> None:
        """Append the whole batch, a checkpointed frame whose per-partition
        ``sizes`` the caller measured; partitions concatenate (the
        automatic co-partitioning property of Sec. 5.2)."""
        if self.df is None:
            self.schema = batch_df.schema
            self._set_df(batch_df, list(sizes))
        else:
            self._set_df(self.df.unionByName(batch_df), self.sizes() + list(sizes))
        self.count += sum(sizes)

    def keep_random(self, k: int) -> None:
        """Downsample the reservoir to ``k`` uniform survivors."""
        if k >= self.count:
            return
        sizes = self.sizes()
        decision = self._choice(sizes, k)
        kept = self._ckpt(self._select(self.df, self._spec(decision, sizes, "keep")))
        self._set_df(kept, self._picked_per_partition(decision, len(sizes)))
        self.count = k

    def extract_one(self) -> dict[str, Any] | None:
        """Remove and return one uniformly random item (for the latent
        sample's partial-item moves)."""
        if self.count == 0:
            return None
        sizes = self.sizes()
        decision = ("pos", central_positions(self.rng, sizes, 1))
        row = self._select(self.df, self._spec(decision, sizes, "keep")).toPandas()
        rest = self._ckpt(self._select(self.df, self._spec(decision, sizes, "drop")))
        removed = self._picked_per_partition(decision, len(sizes))
        self._set_df(rest, [s - r for s, r in zip(sizes, removed)])
        self.count -= 1
        return dict(row.iloc[0])

    def insert_rows(self, rows: list[dict[str, Any]]) -> None:
        if not rows:
            return
        if self.df is None:
            raise RuntimeError("insert_rows into an uninitialized reservoir")
        small = self._ckpt(
            self.spark.createDataFrame(pd.DataFrame(rows), schema=self.df.schema)
            .coalesce(1)  # single known partition: sizes stay exact
        )
        self._set_df(self.df.unionByName(small), self.sizes() + [len(rows)])
        self.count += len(rows)

    def replace_random(self, m: int, batch_df: DataFrame, sizes: list[int]) -> None:
        """Saturated-regime hot path: m random victims in the reservoir
        are replaced by m uniform items of the batch (Alg. 2 line 17).
        One select pass over ``reservoir ∪ batch``, no shuffle."""
        if m <= 0:
            return
        res_sizes = self.sizes()
        res_decision = self._choice(res_sizes, m)
        ins_decision = self._choice(sizes, m)
        # Batch partitions sit at ids offset by len(res_sizes) in the
        # union — deterministic, so the driver can address them directly.
        spec = self._spec(res_decision, res_sizes, "drop")
        spec.update(self._spec(ins_decision, sizes, "keep", len(res_sizes)))
        new_df = self._ckpt(self._select(self.df.unionByName(batch_df), spec))
        removed = self._picked_per_partition(res_decision, len(res_sizes))
        new_sizes = [s - r for s, r in zip(res_sizes, removed)]
        new_sizes += self._picked_per_partition(ins_decision, len(sizes))
        self._set_df(new_df, new_sizes)

    def clear(self) -> None:
        self._set_df(None, [])
        self.count = 0

    def to_pandas(self) -> pd.DataFrame:
        if self.df is not None:
            return self.df.toPandas()
        if self.schema is None:
            return pd.DataFrame()
        if self._empty is None:  # one Spark job, then none per realization
            self._empty = self.spark.createDataFrame([], self.schema).toPandas()
        return self._empty.copy()


class KVReservoir:
    """Simulated distributed key-value-store reservoir (Fig. 5(a)).

    Items are keyed by slot number; the driver tracks the live slot set
    (the paper's master generates and tracks slot numbers too). Inserts
    are fetched from the batch by a join on the row address (``_retrieve``)
    and repartitioned by slot hash — the simulated cross-network write —
    and deletes are slot-keyed anti-joins. Every join carries an explicit
    strategy hint, so its plan does not depend on the session's
    ``autoBroadcastJoinThreshold``.
    """

    SLOT = "__slot"
    ROW = "__row"  # a batch row's address, monotonically_increasing_id()

    def __init__(
        self,
        spark: SparkSession,
        *,
        retrieval: str = "rj",
        seed: int = 0,
        target_partitions: int | None = None,
    ):
        if retrieval not in ("rj", "cj"):
            raise ValueError(f"unknown retrieval mode {retrieval!r}")
        self.spark = spark
        self.retrieval = retrieval
        self.rng = make_rng(seed)
        self.df: DataFrame | None = None
        self.live_slots = np.empty(0, dtype=np.int64)
        self.next_slot = 0
        self._empty: pd.DataFrame | None = None  # a cleared reservoir's items
        self.P = target_partitions or spark.sparkContext.defaultParallelism

    @property
    def count(self) -> int:
        return len(self.live_slots)

    def _materialize(self, df: DataFrame) -> None:
        # same evaluation-order discipline as CoPartitionedReservoir:
        # checkpoint first, only then coalesce (over a plain scan).
        df = df.localCheckpoint(eager=True)
        if df.rdd.getNumPartitions() > 2 * self.P:
            df = df.coalesce(self.P).localCheckpoint(eager=True)
        self.df = df

    def _slot_df(self, slots: np.ndarray) -> DataFrame:
        return self.spark.createDataFrame(
            pd.DataFrame({self.SLOT: slots.astype(np.int64)})
        )

    # -- retrieval of batch items (Sec. 5.3 / Fig. 6) ------------------
    def _retrieve(
        self, batch_df: DataFrame, positions: Mapping[int, np.ndarray], slots: np.ndarray
    ) -> DataFrame:
        """Fetch the batch items at ``positions`` and key them by the
        destination ``slots``, assigned in ascending row-address order.

        The pick set Q is a (row address, slot) table built on the driver
        and joined with the batch on the address both share. Repartition
        join shuffles both sides; co-located join broadcasts Q and filters
        each batch partition in place (Fig. 6(a))."""
        q = self.spark.createDataFrame(
            pd.DataFrame({self.ROW: addresses(positions), self.SLOT: slots}),
            schema=f"{self.ROW} long, {self.SLOT} long",
        )
        q = F.broadcast(q) if self.retrieval == "cj" else q.hint("shuffle_merge")
        rows = batch_df.withColumn(self.ROW, F.monotonically_increasing_id())
        return rows.join(q, self.ROW).drop(self.ROW)

    # -- reservoir operations -----------------------------------------
    def insert_all(self, batch_df: DataFrame, sizes: list[int]) -> None:
        positions = {pid: np.arange(sz) for pid, sz in enumerate(sizes) if sz > 0}
        n_rows = sum(sizes)
        slots = np.arange(self.next_slot, self.next_slot + n_rows, dtype=np.int64)
        self.next_slot += n_rows
        inserts = self._retrieve(batch_df, positions, slots)
        inserts = inserts.repartition(self.P, self.SLOT)  # simulated KV write
        df = inserts if self.df is None else self.df.unionByName(inserts)
        self.live_slots = np.concatenate([self.live_slots, slots])
        self._materialize(df)

    def keep_random(self, k: int) -> None:
        if k >= self.count:
            return
        keep = self.rng.choice(self.live_slots, size=k, replace=False)
        kept_df = self.df.join(
            F.broadcast(self._slot_df(keep)), on=self.SLOT, how="inner"
        )
        self.live_slots = np.sort(keep)
        self._materialize(kept_df)

    def extract_one(self) -> dict[str, Any] | None:
        if self.count == 0:
            return None
        slot = int(self.rng.choice(self.live_slots))
        row = self.df.filter(F.col(self.SLOT) == slot).drop(self.SLOT).toPandas()
        self.live_slots = self.live_slots[self.live_slots != slot]
        self._materialize(self.df.filter(F.col(self.SLOT) != slot))
        return dict(row.iloc[0])

    def insert_rows(self, rows: list[dict[str, Any]]) -> None:
        if not rows:
            return
        slots = np.arange(self.next_slot, self.next_slot + len(rows), dtype=np.int64)
        self.next_slot += len(rows)
        pdf = pd.DataFrame(rows)
        pdf[self.SLOT] = slots
        # createDataFrame matches columns by position, and the joins of
        # keep_random put the slot column first.
        small = self.spark.createDataFrame(pdf[self.df.columns], schema=self.df.schema)
        self.live_slots = np.concatenate([self.live_slots, slots])
        self._materialize(self.df.unionByName(small.repartition(self.P, self.SLOT)))

    def replace_random(self, m: int, batch_df: DataFrame, sizes: list[int]) -> None:
        if m <= 0:
            return
        victims = self.rng.choice(self.live_slots, size=m, replace=False)
        positions = central_positions(self.rng, sizes, m)
        inserts = self._retrieve(batch_df, positions, victims.astype(np.int64))
        inserts = inserts.repartition(self.P, self.SLOT)  # simulated KV write
        survivors = self.df.join(
            F.broadcast(self._slot_df(victims)), on=self.SLOT, how="left_anti"
        )
        # victims' slots are reused by the inserts: live set unchanged.
        self._materialize(survivors.unionByName(inserts))

    def clear(self) -> None:
        if self.df is not None:
            self._materialize(self.df.limit(0))
        self.live_slots = np.empty(0, dtype=np.int64)

    def to_pandas(self) -> pd.DataFrame:
        if self.df is None:
            return pd.DataFrame()
        if self.count:
            return self.df.drop(self.SLOT).toPandas()
        if self._empty is None:  # one Spark job, then none per realization
            self._empty = self.df.drop(self.SLOT).toPandas()
        return self._empty.copy()
