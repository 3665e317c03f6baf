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
  are composed on the driver and applied locally by each worker (no
  shuffle) when the reservoir merges. Its rows live only in *pieces*:
  checkpointed batches and merges, and a piece of one row for each row
  ``insert_rows`` puts back, kept and merged like any other. Supports
  both the *centralized* (driver-generated offsets) and *distributed*
  (per-partition multivariate-hypergeometric counts) decision strategies
  of Sec. 5.3.

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
Python worker (and no ``repro`` import on a worker) is needed. They
freeze lineage with ``localCheckpoint``, standing in for the paper's
in-place RDD updates + checkpointing (Appendix E): the key-value store
every round, the co-partitioned reservoir only when it merges.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.distributed.common import (  # partition_sizes: DRTBS sizes batches through it
    RAND,
    ROW,
    addresses,
    central_positions,
    distributed_counts,
    in_order,
    keep_first,
    keep_offsets,
    num_partitions,
    observed_sizes,
    partition_sizes,
)
from repro.rng import make_rng


def _null(value: Any) -> bool:
    """Whether a value read from a Spark row or a pandas frame is a null."""
    return value is None or (pd.api.types.is_scalar(value) and bool(pd.isna(value)))


def _row_values(frame: pd.DataFrame, i: int) -> dict[str, Any]:
    """Row ``i`` of a ``toPandas()`` frame, read column by column, so each
    value keeps its column's dtype (``frame.iloc[i]`` would make every
    value a float when all columns are numeric and one is a float), and
    every null (None, or NaN where pandas holds one) is None. The one
    reader of a row from Spark."""
    return {c: None if _null(v := frame[c].iloc[i]) else v for c in frame.columns}


def _local_rows(spark: SparkSession, rows: Sequence[Mapping[str, Any]], schema: Any) -> DataFrame:
    """``rows``, mappings of the values a ``toPandas()`` row holds, as a
    frame of local data with ``schema``: every null (None, or NaN where
    pandas holds one) is None and every numpy scalar a Python one, which
    Spark takes with Arrow off too. The one writer of a row into Spark."""

    def value(v: Any) -> Any:
        return None if _null(v) else v.item() if isinstance(v, np.generic) else v

    return spark.createDataFrame([tuple(value(row[c]) for c in schema.names) for row in rows], schema)


@dataclass(frozen=True)
class Place:
    """Where a row ``extract_one`` took was stored: partition ``pid`` of the
    store's ``piece``, at ``offset`` or, if that is None, at position
    ``rank`` of the partition's ``rand`` order (the positions
    ``common.ranked`` counts)."""

    piece: Any
    pid: int
    offset: int | None = None
    rank: int = 0


class LazyRow(Mapping):
    """A row ``extract_one`` took from a stored partition, known by its
    ``place`` until something reads its values. The first read resolves
    them (``resolve(place)``, one Spark job) and keeps them. Testing it
    against None, putting it back with ``insert_rows``, a merge, a
    realization that includes it and ``clear()`` read nothing: a row put
    back becomes a piece that the store realizes from its place."""

    def __init__(self, place: Place, resolve: Callable[[Place], Mapping[str, Any]]):
        self.place = place
        self._resolve = resolve
        self._row: Mapping[str, Any] | None = None

    def _values(self) -> Mapping[str, Any]:
        if self._row is None:
            self._row = self._resolve(self.place)
        return self._row

    def __getitem__(self, key: str) -> Any:
        return self._values()[key]

    def __iter__(self):
        return iter(self._values())

    def __len__(self) -> int:
        return len(self._values())


class PendingDecisions:
    """The co-partitioned reservoir's items between merges, composed on the
    driver in plain Python.

    The items are rows of stored partitions ``0 .. len(stored) - 1``
    (``stored[j]`` rows each, addressed by offset): a batch's, a merge's,
    or the one row ``insert_rows`` put back. Stored partition ``j`` holds
    ``keep[j]`` items. Which rows are the items depends on the decision
    strategy:

    * distributed: the partition's rows have an order drawn at random when
      it was stored (Spark's ``rand`` over its piece, ``common.in_order``),
      and the items are the rows at positions ``lo[j] .. lo[j] + keep[j] -
      1`` of that order: every row (``lo[j] = 0``, ``keep[j] = stored[j]``)
      until a decision touches the partition. An extract takes position
      ``lo[j]`` and moves ``lo[j]`` up;
    * centralized: the rows at the offsets ``offsets(j)``, drawn on the
      driver (every row until a decision touches the partition), which an
      extract leaves out.

    The reservoir operations change only these, with draws from ``rng``
    through ``distributed_counts`` or ``central_positions``. A keep keeps
    some of the items and an extract takes one of them, so the items after
    an operation are some of the items before it plus the rows it adds: a
    view realized between merges is never contradicted later. ``(A, π)``
    has the law a ``ListReservoir`` gives it: the first k rows of a uniform
    order are a uniform k-subset, and given that subset, the order within
    it is still uniform, so its first row is a uniform member of it and
    the rest a uniform subset; a uniform subset of a uniform subset is a
    uniform subset. An extract names its row by place only (``take``), so
    it reads nothing from the store.
    """

    def __init__(self, rng: np.random.Generator, strategy: str = "dist"):
        if strategy not in ("cent", "dist"):
            raise ValueError(f"unknown decision strategy {strategy!r}")
        self.rng = rng
        self.strategy = strategy
        self.clear()

    def clear(self) -> None:
        self.stored: list[int] = []
        self.keep: list[int] = []
        if self.strategy == "dist":
            self.lo: list[int] = []  # position of each partition's first item in its order
        else:
            self.kept: list[np.ndarray | None] = []  # offsets(j), None for all

    @property
    def count(self) -> int:
        return sum(self.keep)

    def offsets(self, j: int) -> np.ndarray:
        """Centralized: the offsets of stored partition j's items."""
        kept = self.kept[j]
        return np.arange(self.stored[j]) if kept is None else kept

    def add(self, sizes: Sequence[int], picks: Sequence[Any] | None = None) -> None:
        """Store new partitions of ``sizes`` rows; the items are the rows
        ``picks`` (a ``_draw`` over ``sizes``) names, or all of them."""
        self.stored += list(sizes)
        if self.strategy == "dist":
            self.keep += list(sizes if picks is None else picks)
            self.lo += [0] * len(sizes)
        elif picks is None:
            self.keep += list(sizes)
            self.kept += [None] * len(sizes)
        else:
            self.keep += [len(p) for p in picks]
            self.kept += list(picks)

    def merged(self, sizes: Sequence[int]) -> None:
        """The items were rewritten into partitions of ``sizes`` rows."""
        self.clear()
        self.add(sizes)

    def _draw(self, sizes: Sequence[int], k: int) -> list[Any]:
        """k uniform picks over partitions of ``sizes`` items: how many fall
        in each (distributed), or which of each one's items (centralized,
        sorted indices)."""
        if self.strategy == "dist":
            counts = distributed_counts(self.rng, sizes, k)
            return [counts.get(pid, 0) for pid in range(len(sizes))]
        positions = central_positions(self.rng, sizes, k)
        return [positions.get(pid, np.empty(0, dtype=np.int64)) for pid in range(len(sizes))]

    def _rest(self, picks: list[Any]) -> list[Any]:
        """The items of every partition that ``picks`` does not name."""
        if self.strategy == "dist":
            return [size - c for size, c in zip(self.keep, picks)]
        return [np.setdiff1d(np.arange(size), idx) for size, idx in zip(self.keep, picks)]

    def _take(self, picks: list[Any]) -> None:
        """Keep the items ``picks`` names: the first ones of each
        partition's window of its order (distributed) or those at the
        given indices (centralized)."""
        if self.strategy == "dist":
            self.keep = picks
            return
        for j, idx in enumerate(picks):
            if len(idx) < self.keep[j]:
                self.kept[j], self.keep[j] = self.offsets(j)[idx], len(idx)

    def keep_random(self, k: int) -> None:
        self._take(self._draw(self.keep, k))

    def extract_one(self, take: Callable[..., Any]) -> Any:
        """Remove and return a uniform item: a partition drawn in proportion
        to its items, then a uniform item of it, named by ``take(partition,
        offset)`` (centralized) or ``take(partition, rank=)`` (distributed):
        the first row of the partition's window, uniform over its items
        given the item set."""
        slot = int(self.rng.integers(self.count))
        for pid, size in enumerate(self.keep):
            if slot < size:
                break
            slot -= size
        if self.strategy == "cent":
            offsets = self.offsets(pid)
            self.kept[pid] = np.delete(offsets, slot)
            item = take(pid, int(offsets[slot]))
        else:
            item = take(pid, rank=self.lo[pid])
            self.lo[pid] += 1
        self.keep[pid] -= 1
        return item

    def replace_random(self, m: int, sizes: Sequence[int]) -> None:
        """m uniform victims leave; m uniform rows of a batch of ``sizes``,
        stored as new partitions, come in."""
        self._take(self._rest(self._draw(self.keep, m)))
        self.add(sizes, self._draw(sizes, m))


class SparkPieces:
    """The co-partitioned reservoir's rows in Spark: the *pieces*, in
    partition order, which no operation rewrites. A piece is the last
    merge or a batch since, checkpointed, or a row ``insert_rows`` put
    back, read as a frame of one partition (``_frame``). Given the
    driver's ``PendingDecisions``, it realizes the items as a lazy view,
    names a stored row as a ``LazyRow``, or merges the items into one new
    piece. A row crosses one way each: into Spark through ``_local_rows``,
    out of it through ``_row_values`` over a ``toPandas()`` frame."""

    def __init__(self, spark: SparkSession, *, seed: int):
        self.spark = spark
        self.seed = seed
        self.op = 0  # monotone piece counter: seeds each piece's rand order
        self.frames: list[tuple[Any, int, int]] = []  # (piece, partitions, op)
        self.schema = None  # the batches' schema, kept across clear()
        self._guard: DataFrame | None = None  # zero partitions, first in unions
        self._empty: pd.DataFrame | None = None  # a cleared reservoir's items

    def clear(self) -> None:
        self.frames = []

    def add(self, piece: DataFrame | Mapping[str, Any], sizes: Sequence[int]) -> None:
        """Append a piece whose partitions hold ``sizes`` rows: a
        checkpointed frame, or a row put back."""
        if self.schema is None:
            self.schema = piece.schema
            self._guard = piece.limit(0).localCheckpoint(eager=False)
        self.op += 1
        self.frames.append((piece, len(sizes), self.op))

    def view(self, pending: PendingDecisions) -> DataFrame | None:
        """The items as a lazy frame whose partitions hold ``pending.keep``
        rows, the pieces' in order. Centralized decisions: one filter over
        the union of the pieces, addressed by the union's partition ids,
        that holds every touched partition's bitmap. Distributed decisions:
        each piece that a decision touched is filtered by its own ``rand``
        order, and the union sits above those filters."""
        if not self.frames:
            return None
        touched = [j for j, (k, size) in enumerate(zip(pending.keep, pending.stored)) if k < size]
        if pending.strategy == "cent":
            pieces = [self._guard] + [self._frame(piece) for piece, _, _ in self.frames]
            union = functools.reduce(DataFrame.unionByName, pieces)
            return keep_offsets(union, {j: pending.offsets(j) for j in touched})
        parts, first = [self._guard], 0
        for piece, n_parts, op in self.frames:
            windows = {j - first: (pending.lo[j], pending.keep[j]) for j in touched if first <= j < first + n_parts}
            parts.append(keep_first(self._frame(piece), windows, seed=self.seed, round_no=op))
            first += n_parts
        return functools.reduce(DataFrame.unionByName, parts)

    def row(self, pid: int, offset: int | None = None, *, rank: int = 0) -> LazyRow:
        """Stored partition ``pid``'s row at ``offset`` or, if that is None,
        at position ``rank`` of its order, as a ``LazyRow`` that ``fetch``
        resolves. No Spark job."""
        for piece in self.frames:
            if pid < piece[1]:
                break
            pid -= piece[1]
        else:
            raise IndexError(pid)
        return LazyRow(Place(piece, pid, offset, rank), self.fetch)

    def _select(self, place: Place) -> DataFrame:
        """The row at ``place`` as a lazy frame of one partition: a top-1
        over its piece, by address or in the partition's ``rand`` order.
        The top-1 (not a bare filter) ends in a shuffle, so its partition
        reports no block location, as local data does: a partition that
        reports one changes the groups of the merge's locality-aware
        ``coalesce``."""
        piece, _, op = place.piece
        frame = self._frame(piece)
        base, end = (int(addresses({pid: [0]})[0]) for pid in (place.pid, place.pid + 1))
        if place.offset is None:
            rows = in_order(frame, seed=self.seed, round_no=op)
            rows, key = rows.filter(f"{ROW} >= {base} AND {ROW} < {end}"), RAND
        else:
            rows = frame.selectExpr("*", f"monotonically_increasing_id() AS {ROW}")
            rows, key = rows.filter(f"{ROW} = {base + place.offset}"), ROW
        rows = rows.orderBy(F.expr(key)).limit(place.rank + 1).offset(place.rank)
        return rows.selectExpr(*[f"`{c}`" for c in frame.columns])

    def _frame(self, piece: DataFrame | Mapping[str, Any]) -> DataFrame:
        """A piece as a frame. A row put back becomes a lazy frame of one
        partition, with no Spark job: a ``LazyRow`` read from its place,
        any other row from local data (``_local_rows``). It is built only
        when a view or a fetch reads it: building its plan takes about
        25 ms of calls into the JVM (4-core host), which a put-back would
        otherwise wait for."""
        if isinstance(piece, DataFrame):
            return piece
        if isinstance(piece, LazyRow):
            return self._select(piece.place)
        return _local_rows(self.spark, [piece], self.schema).coalesce(1)

    def fetch(self, place: Place) -> dict[str, Any]:
        """The values of the row at ``place``, read in one Spark job from
        the frame a realization unions in for it."""
        return _row_values(self._select(place).toPandas(), 0)

    def merge(self, view: DataFrame, P: int) -> list[int]:
        """Rewrite the items into one piece of at most ``P`` partitions in
        one pass, sized by ``observe`` counts over the merged partitions."""
        merged, sizes = observed_sizes(view.coalesce(P), P, lambda df: df.localCheckpoint(eager=True))
        sizes = sizes[: num_partitions(merged)]
        self.frames = []
        self.add(merged, sizes)
        return sizes

    def to_pandas(self, view: DataFrame | None, rows: Sequence[LazyRow] = ()) -> pd.DataFrame:
        """The items of ``view``, then ``rows``, realized in one Spark job;
        reading ``rows`` later still runs their ``fetch``."""
        frames = ([view] if view is not None else []) + [self._select(r.place) for r in rows]
        if frames:
            return functools.reduce(DataFrame.unionByName, frames).toPandas()
        if self.schema is None:
            return pd.DataFrame()
        if self._empty is None:  # one Spark job, then none per realization
            self._empty = self.spark.createDataFrame([], self.schema).toPandas()
        return self._empty.copy()


class CoPartitionedReservoir:
    """Reservoir co-partitioned with incoming batches (Fig. 5(b)).

    The rows live in *pieces* (``SparkPieces``), which no operation
    rewrites: the last merge and every batch since, checkpointed, and a
    piece of one row for each row ``insert_rows`` put back (Swap1's
    ``A ← (A∖I) ∪ π``). Reservoir partitions coincide with the pieces'
    partitions (the automatic co-partitioning of Sec. 5.2), and the
    driver's ``PendingDecisions`` say which of their rows are items: per
    partition, a window of a random order of its rows (distributed
    decisions) or the kept offsets (centralized). A put-back row's
    partition is kept, extracted from and merged like any other. ``sizes``
    (items per partition) and ``count`` are read on the driver, with no
    Spark job. An operation only drops items or adds rows, so every view
    of the items between merges agrees with the ones before it.

    Spark jobs, as measured: ``keep_random``, ``insert_rows``,
    ``extract_one``, and ``insert_all`` and ``replace_random`` given a batch
    the caller sized (``DRTBS.advance`` sizes it in one job), run none.
    ``extract_one`` returns a ``LazyRow``, read in 1 job (a top-1 over its
    piece) when something first reads its values. ``to_pandas`` runs 1,
    with the extracted rows it is given, and leaves them unread. The
    reservoir *merges* when it has more than ``4·P`` partitions: one pass
    (1 job) applies the pending decisions through ``common.keep_first``
    per piece or ``common.keep_offsets`` over the union of the pieces,
    ``coalesce``-s to ``P`` partitions, reads their sizes through
    ``DataFrame.observe`` and checkpoints; Cent-CP's kept offsets travel in
    that pass's filter. So a D-R-TBS round of either strategy runs 1 job
    per non-empty batch and 1 per merge (a merging saturated round: 2).
    ``df`` is the lazy view of the items that a merge checkpoints.

    CRITICAL evaluation-order invariants: ``spark_partition_id()``,
    ``monotonically_increasing_id()`` and ``rand`` take the partition index
    of the plan they are evaluated over, and ``rand`` advances once per row
    it is evaluated on. Every piece's ``rand`` order (Dist-CP's filters, the
    fetch) is therefore projected directly over its piece, and every row
    address over its piece or over the union of the pieces (Cent-CP's
    filter), whose partitions are the pieces' in order, before any row is
    dropped (``common.in_order``). A piece is a checkpointed batch or
    merge, whose partitions and offsets the driver counted, or a put-back
    row's frame, whose one row has offset 0 and rank 0 however Spark
    evaluates it. Every filter, the view's union over Dist-CP's filters and
    the merge's ``coalesce`` sit above those projections. Unions put a
    zero-partition frame first: Spark 4.1 merges partition i of every child
    when all of them report a single partition
    (``spark.sql.unionOutputPartitioning``), and one child that does not
    keeps the partitions concatenated, so the view's partitions are the
    ``sizes`` the driver holds. Over a frame of local data Spark's optimizer
    would evaluate the ids on the driver as if it were one partition, so
    batches arrive checkpointed (``DRTBS.advance`` keeps a checkpoint
    already written and checkpoints any other frame); a put-back row's
    frame is one partition anyway.

    Every expression is a SQL string (``F.expr``, ``selectExpr``, a string
    ``filter``), never a ``Column`` method or ``F.col``: PySpark records
    the Python call site of each such call, which imports IPython into
    the driver.

    ``pieces`` replaces the Spark store with any object of
    ``SparkPieces``'s methods, so the composition can run without Spark.
    """

    def __init__(
        self,
        spark: SparkSession | None,
        *,
        strategy: str = "dist",
        seed: int = 0,
        target_partitions: int | None = None,
        pieces: Any = None,
    ):
        self.pending = PendingDecisions(make_rng(seed), strategy)
        self.pieces = pieces if pieces is not None else SparkPieces(spark, seed=seed)
        self._df: Any = None  # the view, until the items change
        self.P = target_partitions or spark.sparkContext.defaultParallelism

    @property
    def sizes(self) -> list[int]:
        return list(self.pending.keep)

    @property
    def count(self) -> int:
        return self.pending.count

    @property
    def df(self) -> DataFrame | None:
        """The items as a lazy frame whose partitions hold ``sizes`` rows."""
        if self._df is None:
            self._df = self.pieces.view(self.pending)
        return self._df

    def _changed(self) -> None:
        """Drop the stale view; merge if the reservoir has more than
        ``4·P`` partitions."""
        self._df = None
        if len(self.sizes) > 4 * self.P:
            self._merge()

    def _merge(self) -> None:
        sizes = self.pieces.merge(self.df, self.P)
        if sum(sizes) != self.count:
            raise AssertionError(f"merge of {self.count} items holds {sum(sizes)}")
        self.pending.merged(sizes)
        self._df = None

    # -- reservoir operations -----------------------------------------
    def insert_all(self, batch_df: DataFrame, sizes: list[int]) -> None:
        """Append the whole batch, a checkpointed frame whose per-partition
        ``sizes`` the caller measured, as a new piece."""
        self.pending.add(sizes)
        self.pieces.add(batch_df, sizes)
        self._changed()

    def keep_random(self, k: int) -> None:
        """Downsample the reservoir to ``k`` uniform survivors."""
        if k >= self.count:
            return
        self.pending.keep_random(k)
        self._changed()

    def extract_one(self) -> LazyRow | None:
        """Remove and return one uniformly random item (for the latent
        sample's partial-item moves) as a ``LazyRow``, read only when
        something reads its values."""
        if self.count == 0:
            return None
        item = self.pending.extract_one(self.pieces.row)
        self._changed()
        return item

    def insert_rows(self, rows: list[Mapping[str, Any]]) -> None:
        """Put each row back as a piece of one partition: a ``LazyRow``
        as the top-1 over its place, any other row as local data."""
        if not rows:
            return
        if self.pieces.schema is None:
            raise RuntimeError("insert_rows into an uninitialized reservoir")
        for row in rows:
            self.pending.add([1])
            self.pieces.add(row, [1])
        self._changed()

    def replace_random(self, m: int, batch_df: DataFrame, sizes: list[int]) -> None:
        """Saturated-regime hot path: m random victims in the reservoir
        are replaced by m uniform items of the batch (Alg. 2 line 17), which
        becomes a new piece."""
        if m <= 0:
            return
        self.pending.replace_random(m, sizes)
        self.pieces.add(batch_df, sizes)
        self._changed()

    def clear(self) -> None:
        self.pending.clear()
        self.pieces.clear()
        self._df = None

    def to_pandas(self, *rows: LazyRow) -> pd.DataFrame:
        """The items, then ``rows`` (rows extracted earlier), realized in
        one Spark job."""
        return self.pieces.to_pandas(self.df, rows)


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
        self.df = df.localCheckpoint(eager=True)

    def _write(self, survivors: DataFrame | None, inserts: DataFrame) -> None:
        """Checkpoint ``survivors`` (partitioned as ``df``) with ``inserts``
        written to their slots' partitions, the simulated KV write. A union
        of more than ``2·P`` partitions is coalesced to ``P`` first: every
        ``monotonically_increasing_id()`` of the plan sits below the
        write's exchange, so the coalesce moves no row's address."""
        df = inserts.repartition(self.P, self.SLOT)
        if survivors is not None:
            df = survivors.unionByName(df)
            if num_partitions(self.df) > self.P:
                df = df.coalesce(self.P)
        self._materialize(df)

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
            pd.DataFrame({ROW: addresses(positions), self.SLOT: slots}),
            schema=f"{ROW} long, {self.SLOT} long",
        )
        q = F.broadcast(q) if self.retrieval == "cj" else q.hint("shuffle_merge")
        rows = batch_df.selectExpr("*", f"monotonically_increasing_id() AS {ROW}")
        return rows.join(q, ROW).drop(ROW)

    # -- reservoir operations -----------------------------------------
    def insert_all(self, batch_df: DataFrame, sizes: list[int]) -> None:
        positions = {pid: np.arange(sz) for pid, sz in enumerate(sizes) if sz > 0}
        n_rows = sum(sizes)
        slots = np.arange(self.next_slot, self.next_slot + n_rows, dtype=np.int64)
        self.next_slot += n_rows
        self.live_slots = np.concatenate([self.live_slots, slots])
        self._write(self.df, self._retrieve(batch_df, positions, slots))

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
        row = self.df.filter(f"{self.SLOT} = {slot}").drop(self.SLOT).toPandas()
        self.live_slots = self.live_slots[self.live_slots != slot]
        self._materialize(self.df.filter(f"{self.SLOT} != {slot}"))
        return _row_values(row, 0)

    def insert_rows(self, rows: list[dict[str, Any]]) -> None:
        if not rows:
            return
        slots = np.arange(self.next_slot, self.next_slot + len(rows), dtype=np.int64)
        self.next_slot += len(rows)
        keyed = [{**row, self.SLOT: slot} for row, slot in zip(rows, slots)]
        small = _local_rows(self.spark, keyed, self.df.schema)
        self.live_slots = np.concatenate([self.live_slots, slots])
        self._write(self.df, small)

    def replace_random(self, m: int, batch_df: DataFrame, sizes: list[int]) -> None:
        if m <= 0:
            return
        victims = self.rng.choice(self.live_slots, size=m, replace=False)
        positions = central_positions(self.rng, sizes, m)
        inserts = self._retrieve(batch_df, positions, victims.astype(np.int64))
        survivors = self.df.join(
            F.broadcast(self._slot_df(victims)), on=self.SLOT, how="left_anti"
        )
        # victims' slots are reused by the inserts: live set unchanged.
        self._write(survivors, inserts)

    def clear(self) -> None:
        if self.df is not None:
            self._materialize(self.df.limit(0))
        self.live_slots = np.empty(0, dtype=np.int64)

    def to_pandas(self, *rows: Mapping[str, Any]) -> pd.DataFrame:
        """The items, then ``rows`` (rows extracted earlier), realized in
        one Spark job."""
        if self.df is None:
            return pd.DataFrame()
        items = self.df.drop(self.SLOT)
        if rows:
            return items.unionByName(_local_rows(self.spark, rows, items.schema)).toPandas()
        if self.count:
            return items.toPandas()
        if self._empty is None:  # one Spark job, then none per realization
            self._empty = items.toPandas()
        return self._empty.copy()
