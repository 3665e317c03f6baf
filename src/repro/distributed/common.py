"""Partition-level primitives for the distributed samplers (Sec. 5.3).

All primitives operate on DataFrames whose partitioning has been frozen
by ``localCheckpoint`` (our stand-in for the paper's in-place-updated,
checkpointed RDDs), or on a lazy union of such pieces, so per-partition
row counts and row order are stable between the planning pass (driver)
and the execution pass (workers).

The per-round passes are plain Spark SQL expressions, evaluated inside
the JVM executors with no Python worker:

* ``partition_sizes`` counts the rows of every ``spark_partition_id()``
  in ``DataFrame.observe`` metrics (``observed_sizes``) over a ``noop``
  write: one job of one stage, which also materializes a lazy checkpoint
  under the frame. ``materialized`` tells a checkpoint already written
  from any other frame, on the driver and with no job;
* ``keep_first`` and ``keep_offsets``, one filter per decision strategy,
  address a row by ``monotonically_increasing_id()``, whose value is
  ``(pid << 33) + offset``: the row's partition in the plan the expression
  is evaluated over, and its position inside that partition. The
  expression is projected directly over the given DataFrame, so the
  addresses are those of its own partitions; the co-partitioned
  reservoir gives ``keep_first`` one piece at a time and ``keep_offsets``
  the union of its pieces, whose partitions are theirs in order. A frame
  of local data must be checkpointed first: over it, Spark's optimizer
  evaluates both ids on the driver as if the frame were one partition;
* ``addresses`` gives the driver the same address for each picked
  ``(partition, offset)``, which the key-value reservoir joins the batch
  on.

Two decision strategies from the paper:

* **Centralized** — the master samples *global slot numbers* and maps
  each to a ``(partition, offset)`` pair using cumulative partition
  sizes (``central_positions``); ``keep_offsets`` keeps the rows at those
  offsets by a filter that probes each row's offset in its partition's
  bitmap of offsets, written into the filter as a literal.
* **Distributed** — the master samples only a per-partition *count*
  vector from the multivariate hypergeometric law
  (``distributed_counts``); ``keep_first`` orders each partition's rows
  by ``rand(s)`` (``in_order``) and keeps a window of ``count``
  consecutive rows of that order, from the position the driver gives, so
  the co-partitioned reservoir's later windows nest in its earlier ones.
  Spark seeds partition ``i``'s stream with ``s + i``, so ``s`` is
  derived from (seed, round) through a ``SeedSequence`` rather than as
  ``seed + round``, which would give round ``r``'s partition ``i + 1``
  the stream of round ``r + 1``'s partition ``i`` (the paper cites
  jump-ahead PRNGs [20] for the same guarantee). D-T-TBS's
  ``DataFrame.sample`` seeds are derived the same way.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np
from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.rng import multivariate_hypergeometric_split

ROW = "__row"  # row address (pid << 33) + offset, before any reordering
RANK = "__rank"  # the same after ordering each partition by rand(s)
RAND = "__rand"  # the rand(s) value that orders a partition
_PID_SHIFT = 33  # monotonically_increasing_id's partition-id shift
_OFFSET_MASK = (1 << _PID_SHIFT) - 1  # an address's offset bits


def checkpoint_rdd(df: DataFrame) -> Any:
    """The JVM RDD of ``df``'s ``LogicalRDD`` when ``df`` is a checkpoint
    (eager or lazy) with nothing over it, else None. Read from the analyzed
    plan: ``df.rdd`` is a new Python RDD over the frame, which is never
    checkpointed and takes about 12 ms to build."""
    plan = df._jdf.queryExecution().analyzed()
    return plan.rdd() if plan.nodeName() == "LogicalRDD" else None


def materialized(df: DataFrame) -> bool:
    """Whether ``df`` is a checkpoint already written to the block manager,
    so its partitions and row order are fixed."""
    rdd = checkpoint_rdd(df)
    return rdd is not None and rdd.isCheckpointed()


def num_partitions(df: DataFrame) -> int:
    """``df``'s partition count, read from its checkpoint's JVM RDD when it
    is one (no Python RDD to build), else from ``df.rdd``."""
    rdd = checkpoint_rdd(df)
    return (rdd if rdd is not None else df.rdd).getNumPartitions()


def partition_sizes(df: DataFrame) -> list[int]:
    """Row count of every partition, indexed by partition id, from one
    single-stage Spark job (no shuffle, no rows sent to the driver)."""
    n_parts = num_partitions(df)
    if n_parts == 0:
        return []
    return observed_sizes(df, n_parts, lambda d: d.write.format("noop").mode("overwrite").save())[1]


def observed_sizes(
    df: DataFrame, n_parts: int, action: Callable[[DataFrame], Any]
) -> tuple[Any, list[int]]:
    """``action(df)``'s result and the row count of each of partitions
    ``0 .. n_parts - 1`` of ``df``, counted by ``DataFrame.observe`` in the
    job the action runs."""
    obs = Observation()
    counts = [F.expr(f"count_if(spark_partition_id() = {pid}) AS p{pid}") for pid in range(n_parts)]
    out = action(df.observe(obs, *counts))
    metrics = obs.get
    return out, [int(metrics[f"p{pid}"]) for pid in range(n_parts)]


def slots_to_positions(
    slots: Sequence[int], sizes: Sequence[int]
) -> dict[int, np.ndarray]:
    """Map global slot numbers (0-based) to per-partition offset arrays.

    Slot ``s`` lives in the partition whose cumulative size range
    contains ``s`` — the slot→(partition, position) mapping of Sec. 5.2.
    """
    bounds = np.cumsum([0] + list(sizes))
    s = np.asarray(slots, dtype=np.int64)
    if len(s) == 0:
        return {}
    if s.min() < 0 or s.max() >= bounds[-1]:
        raise IndexError(f"slot out of range (total {bounds[-1]})")
    pids = np.searchsorted(bounds, s, side="right") - 1
    offs = s - bounds[pids]
    order = np.argsort(pids, kind="stable")
    pids_sorted, offs_sorted = pids[order], offs[order]
    uniq, starts = np.unique(pids_sorted, return_index=True)
    splits = np.split(offs_sorted, starts[1:])
    return {int(pid): np.sort(chunk) for pid, chunk in zip(uniq, splits)}


def central_positions(
    rng: np.random.Generator, sizes: Sequence[int], k: int
) -> dict[int, np.ndarray]:
    """Centralized decisions: master draws ``k`` distinct global slots."""
    total = int(sum(sizes))
    if k > total:
        raise ValueError(f"cannot choose {k} of {total} slots")
    slots = rng.choice(total, size=k, replace=False) if k else np.empty(0, int)
    return slots_to_positions(slots, sizes)


def distributed_counts(
    rng: np.random.Generator, sizes: Sequence[int], k: int
) -> dict[int, int]:
    """Distributed decisions: master draws only per-partition counts."""
    counts = multivariate_hypergeometric_split(rng, sizes, k)
    return {pid: c for pid, c in enumerate(counts) if c > 0}


def addresses(positions: Mapping[int, np.ndarray]) -> np.ndarray:
    """The addresses ``(pid << 33) + offset`` that
    ``monotonically_increasing_id`` gives the rows at the given offsets of
    every partition, in ascending order."""
    parts = [(pid << _PID_SHIFT) + np.asarray(offs, dtype=np.int64) for pid, offs in positions.items()]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def _bitmap(offsets: np.ndarray) -> str:
    """Offsets as a JSON array of signed 64-bit words: offset ``o`` is bit
    ``o % 64`` of word ``o // 64``."""
    words = np.zeros(offsets.max() // 64 + 1, dtype=np.uint64)
    np.bitwise_or.at(words, offsets // 64, np.uint64(1) << (offsets % 64).astype(np.uint64))
    return str(words.view(np.int64).tolist())


def _rand_seed(seed: int, round_no: int) -> int:
    """A 63-bit ``rand`` seed drawn from (seed, round)."""
    state = np.random.SeedSequence([seed, round_no]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def in_order(df: DataFrame, *, seed: int, round_no: int) -> DataFrame:
    """``df`` with every row's address ``ROW`` and the ``rand(s)`` value
    ``RAND`` that orders its partition, ``s`` drawn from (seed, round_no),
    both drawn over ``df``'s own rows."""
    return df.selectExpr(
        "*", f"monotonically_increasing_id() AS {ROW}", f"rand({_rand_seed(seed, round_no)}) AS {RAND}"
    )


def ranked(df: DataFrame, *, seed: int, round_no: int) -> DataFrame:
    """``in_order(df)`` with ``RANK``, every row's address once each
    partition is sorted by ``RAND``."""
    out = in_order(df, seed=seed, round_no=round_no)
    return out.sortWithinPartitions(F.expr(RAND)).selectExpr("*", f"monotonically_increasing_id() AS {RANK}")


def _by_partition(rows: DataFrame, picked: Mapping[int, str], columns: Sequence[str]) -> DataFrame:
    """``rows`` with ``columns`` only, each partition ``pid`` in ``picked``
    left with the rows its SQL predicate ``picked[pid]`` holds for; the
    rest pass through."""
    if picked:
        cases = " ".join(f"WHEN {pid} THEN {pred}" for pid, pred in sorted(picked.items()))
        rows = rows.filter(f"CASE shiftright({ROW}, {_PID_SHIFT}) {cases} ELSE true END")
    return rows.select(*columns)


def keep_first(
    piece: DataFrame, windows: Mapping[int, tuple[int, int]], *, seed: int, round_no: int
) -> DataFrame:
    """Distributed decisions: partition ``pid`` of ``piece`` keeps the
    ``count`` rows at positions ``first .. first + count - 1`` of the order
    of ``in_order``, ``(first, count) = windows[pid]``, so the same (seed,
    round) keeps the same rows; the other partitions keep every row. One
    pass, no shuffle; the rows are ranked only when some count is
    positive."""
    if not windows:
        return piece
    if any(k for _, k in windows.values()):
        rows = ranked(piece, seed=seed, round_no=round_no)
    else:
        rows = piece.selectExpr("*", f"monotonically_increasing_id() AS {ROW}")
    picked = {
        pid: f"({RANK} & {_OFFSET_MASK}) BETWEEN {first} AND {first + k - 1}" if k else "false"
        for pid, (first, k) in windows.items()
    }
    return _by_partition(rows, picked, piece.columns)


def keep_offsets(piece: DataFrame, offsets: Mapping[int, np.ndarray]) -> DataFrame:
    """Centralized decisions: partition ``pid`` of ``piece`` keeps only its
    rows at ``offsets[pid]``; the other partitions pass through. Each
    partition's offsets are a bitmap written into the filter as a JSON
    literal, which Spark's optimizer folds into one array constant, so the
    filter's tasks carry them. One pass, no shuffle, no job of its own."""
    if not offsets:
        return piece
    rows = piece.selectExpr("*", f"monotonically_increasing_id() AS {ROW}")
    offset = f"({ROW} & {_OFFSET_MASK})"
    picked = {}
    for pid, offs in offsets.items():
        if len(offs):
            words = f"from_json('{_bitmap(offs)}', 'array<bigint>')"
            word = f"try_element_at({words}, int(shiftright({offset}, 6)) + 1)"
            picked[pid] = f"coalesce(bit_get({word}, int({offset} & 63)) = 1, false)"
        else:
            picked[pid] = "false"
    return _by_partition(rows, picked, piece.columns)
