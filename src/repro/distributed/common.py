"""Partition-level primitives for the distributed samplers (Sec. 5.3).

All primitives operate on DataFrames whose partitioning has been frozen
by ``localCheckpoint`` (our stand-in for the paper's in-place-updated,
checkpointed RDDs), or on a lazy union of such pieces, so per-partition
row counts and row order are stable between the planning pass (driver)
and the execution pass (workers).

The per-round passes are plain Spark SQL expressions, evaluated inside
the JVM executors with no Python worker:

* ``partition_sizes`` groups by ``spark_partition_id()``;
* ``select`` addresses a row by ``monotonically_increasing_id()``, whose
  value is ``(pid << 33) + offset``: the row's partition in the plan the
  expression is evaluated over, and its position inside that partition.
  The expression is projected directly over the given DataFrame, so the
  addresses are those of its own partitions — for ``reservoir ∪ batch``,
  union partition ids, which are the branch ids offset by the partition
  count of the branches before them. A frame of local data must be
  checkpointed first: over it, Spark's optimizer evaluates both ids on
  the driver as if the frame were one partition;
* ``addresses`` gives the driver the same address for each picked
  ``(partition, offset)``, which the key-value reservoir joins the batch
  on.

Two decision strategies from the paper:

* **Centralized** — the master samples *global slot numbers* and maps
  each to a ``(partition, offset)`` pair using cumulative partition
  sizes; the rows at those addresses are picked by a filter on the row
  address (few) or by a broadcast join on the partition id that brings
  each row its partition's bitmap of picked offsets (many).
* **Distributed** — the master samples only a per-partition *count*
  vector from the multivariate hypergeometric law; each partition orders
  its rows by ``rand(s)`` and picks its first ``count`` rows. Spark seeds
  partition ``i``'s stream with ``s + i``, so ``s`` is derived from
  (seed, round) through a ``SeedSequence`` rather than as ``seed +
  round``, which would give round ``r``'s partition ``i + 1`` the stream
  of round ``r + 1``'s partition ``i`` (the paper cites jump-ahead PRNGs
  [20] for the same guarantee). D-T-TBS's ``DataFrame.sample`` seeds are
  derived the same way.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.rng import multivariate_hypergeometric_split

_ROW = "__row"  # row address (pid << 33) + offset, before any reordering
_RANK = "__rank"  # the same after ordering each partition by rand(s)
_PID = "__pid"
_BITMAP = "__bitmap"  # a partition's picked offsets, 64 to a word
_PID_SHIFT = 33  # monotonically_increasing_id's partition-id shift
_INLINE_ADDRESSES = 64  # larger address sets are broadcast as bitmaps


def partition_sizes(df: DataFrame) -> list[int]:
    """Row count of every partition, indexed by partition id."""
    counts = dict(df.groupBy(F.spark_partition_id()).count().collect())
    return [int(counts.get(pid, 0)) for pid in range(df.rdd.getNumPartitions())]


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
    return slots_to_positions([int(s) for s in slots], sizes)


def distributed_counts(
    rng: np.random.Generator, sizes: Sequence[int], k: int
) -> dict[int, int]:
    """Distributed decisions: master draws only per-partition counts."""
    counts = multivariate_hypergeometric_split(rng, sizes, k)
    return {pid: c for pid, c in enumerate(counts) if c > 0}


def position_spec(
    positions: Mapping[int, np.ndarray], sizes: Sequence[int], mode: str
) -> dict[int, tuple[str, np.ndarray]]:
    """``select`` spec applying ``mode`` to the given offsets of every
    partition, the smaller side shipped: an offset set larger than half
    its partition becomes the opposite mode on the complement. A
    partition left untouched is omitted."""
    flip = {"keep": "drop", "drop": "keep"}
    spec = {}
    for pid, size in enumerate(sizes):
        m, offs = mode, np.asarray(positions.get(pid, ()), dtype=np.int64)
        if 2 * len(offs) > size:
            m, offs = flip[mode], np.setdiff1d(np.arange(size), offs)
        if m == "keep" or len(offs):
            spec[pid] = (m, offs)
    return spec


def addresses(positions: Mapping[int, np.ndarray]) -> np.ndarray:
    """The addresses ``(pid << 33) + offset`` that
    ``monotonically_increasing_id`` gives the rows at the given offsets of
    every partition, in ascending order."""
    parts = [(pid << _PID_SHIFT) + np.asarray(offs, dtype=np.int64) for pid, offs in positions.items()]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def _bitmap(offsets: np.ndarray) -> np.ndarray:
    """Offsets as 64-bit words: offset ``o`` is bit ``o % 64`` of word
    ``o // 64``."""
    words = np.zeros(offsets.max() // 64 + 1, dtype=np.uint64)
    np.bitwise_or.at(words, offsets // 64, np.uint64(1) << (offsets % 64).astype(np.uint64))
    return words.view(np.int64)


def _rand_seed(seed: int, round_no: int) -> int:
    """A 63-bit ``rand`` seed drawn from (seed, round)."""
    state = np.random.SeedSequence([seed, round_no]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def select(
    df: DataFrame,
    spec: Mapping[int, tuple[str, object]],
    *,
    seed: int,
    round_no: int,
) -> DataFrame:
    """One pass keeping (or dropping) picked rows, per partition.

    ``spec[pid] = (mode, payload)`` with mode ``"keep"``/``"drop"`` and
    payload either an offset array (centralized decisions) or an int
    count (distributed decisions: the partition's first ``count`` rows
    in the order of ``rand(s)``, ``s`` drawn from (seed, round_no), so
    the same (seed, round) picks the same rows). Partitions absent from
    the spec pass through unchanged. This lets D-R-TBS's saturated-path
    delete+insert run as a single Spark job over ``reservoir ∪ batch``.
    """
    cols = df.columns
    out = df.withColumn(_ROW, F.monotonically_increasing_id())
    offset_mask = (1 << _PID_SHIFT) - 1
    offsets = {
        pid: np.asarray(p, dtype=np.int64)
        for pid, (_m, p) in spec.items()
        if not isinstance(p, (int, np.integer)) and len(p)
    }
    n_addresses = sum(map(len, offsets.values()))
    if n_addresses > _INLINE_ADDRESSES:
        # One row per partition, whatever the number of picks: a bitmap
        # ships and probes faster than a broadcast table of addresses.
        bitmaps = df.sparkSession.createDataFrame(
            pd.DataFrame({_PID: list(offsets), _BITMAP: list(map(_bitmap, offsets.values()))}),
            schema=f"{_PID} int, {_BITMAP} array<bigint>",
        )
        out = out.withColumn(_PID, F.expr(f"int(shiftright({_ROW}, {_PID_SHIFT}))"))
        out = out.join(F.broadcast(bitmaps), _PID, "left")
        offset = f"({_ROW} & {offset_mask})"
        word = f"try_element_at({_BITMAP}, int(shiftright({offset}, 6)) + 1)"
        at_address = f"coalesce(bit_get({word}, int({offset} & 63)) = 1, false)"
    elif n_addresses:
        at_address = f"{_ROW} IN ({', '.join(map(str, addresses(offsets)))})"
    counts = {
        pid: int(p) for pid, (_m, p) in spec.items() if isinstance(p, (int, np.integer))
    }
    if any(counts.values()):
        out = out.sortWithinPartitions(F.rand(_rand_seed(seed, round_no)))
        out = out.withColumn(_RANK, F.monotonically_increasing_id())
    cases = []
    for pid, (mode, p) in sorted(spec.items()):
        if pid in offsets:
            picked_row = at_address
        elif counts.get(pid):
            picked_row = f"({_RANK} & {offset_mask}) < {counts[pid]}"
        else:
            picked_row = "false"
        cases.append(
            f"WHEN {pid} THEN {picked_row if mode == 'keep' else f'NOT ({picked_row})'}"
        )
    if cases:
        out = out.filter(
            f"CASE shiftright({_ROW}, {_PID_SHIFT}) {' '.join(cases)} ELSE true END"
        )
    return out.select(*cols)
