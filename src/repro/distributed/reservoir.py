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
  shuffle) when the reservoir merges. Supports both the *centralized*
  (driver-generated offsets) and *distributed* (per-partition
  multivariate-hypergeometric counts) decision strategies of Sec. 5.3.

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
    observed_sizes,
    partition_sizes,
)
from repro.rng import make_rng, sample_without_replacement


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
    against None, putting it back with ``insert_rows``, a merge and
    ``clear()`` read nothing: a row put back stays a ``LazyRow`` that the
    store realizes from its place."""

    def __init__(self, place: Place, resolve: Callable[[Place], Mapping[str, Any]]):
        self.place = place
        self._resolve = resolve
        self._row: Mapping[str, Any] | None = None

    @property
    def read(self) -> bool:
        return self._row is not None

    def fill(self, row: Mapping[str, Any]) -> None:
        """Keep ``row``, read in a job that realized this row anyway."""
        self._row = row

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
    (``stored[j]`` rows each, addressed by offset) and the driver-held
    rows ``held``. Stored partition ``j`` holds ``keep[j]`` items. Which
    rows are the items depends on the decision strategy:

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
        self.held: list[Any] = []
        if self.strategy == "dist":
            self.lo: list[int] = []  # position of each partition's first item in its order
        else:
            self.kept: list[np.ndarray | None] = []  # offsets(j), None for all

    @property
    def sizes(self) -> list[int]:
        """Items in every partition: the stored partitions, then the held
        rows as one more partition if there are any."""
        return self.keep + ([len(self.held)] if self.held else [])

    @property
    def count(self) -> int:
        return sum(self.keep) + len(self.held)

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
            return [size - c for size, c in zip(self.sizes, picks)]
        return [np.setdiff1d(np.arange(size), idx) for size, idx in zip(self.sizes, picks)]

    def _take(self, picks: list[Any]) -> None:
        """Keep the items ``picks`` names: the first ones of a stored
        partition's window of its order (distributed) or those at the
        given indices (centralized), a uniform subset of the held rows."""
        n_stored = len(self.keep)
        if self.strategy == "dist":
            self.keep = picks[:n_stored]
            if self.held and picks[n_stored] < len(self.held):
                self.held = sample_without_replacement(self.rng, self.held, picks[n_stored])
            return
        for j, idx in enumerate(picks[:n_stored]):
            if len(idx) < self.keep[j]:
                self.kept[j], self.keep[j] = self.offsets(j)[idx], len(idx)
        if self.held:
            self.held = [self.held[i] for i in picks[n_stored]]

    def keep_random(self, k: int) -> None:
        self._take(self._draw(self.sizes, k))

    def extract_one(self, take: Callable[..., Any]) -> Any:
        """Remove and return a uniform item: a partition drawn in proportion
        to its items, then a uniform item of it. A stored row is named by
        ``take(partition, offset)`` (centralized) or ``take(partition,
        rank=)`` (distributed): the first row of the partition's window,
        uniform over its items given the item set."""
        slot = int(self.rng.integers(self.count))
        for pid, size in enumerate(self.sizes):
            if slot < size:
                break
            slot -= size
        if pid == len(self.keep):
            return self.held.pop(slot)
        if self.strategy == "cent":
            offsets = self.offsets(pid)
            self.kept[pid] = np.delete(offsets, slot)
            item = take(pid, int(offsets[slot]))
        else:
            item = take(pid, rank=self.lo[pid])
            self.lo[pid] += 1
        self.keep[pid] -= 1
        return item

    def insert_rows(self, rows: Sequence[Any]) -> None:
        self.held += list(rows)

    def replace_random(self, m: int, sizes: Sequence[int]) -> None:
        """m uniform victims leave; m uniform rows of a batch of ``sizes``,
        stored as new partitions, come in."""
        self._take(self._rest(self._draw(self.sizes, m)))
        self.add(sizes, self._draw(sizes, m))


class SparkPieces:
    """The co-partitioned reservoir's rows in Spark: checkpointed frames,
    the *pieces*, in partition order (the last merge and every batch
    since), which no operation rewrites. Given the driver's
    ``PendingDecisions``, it realizes the items as a lazy view, names a
    stored row as a ``LazyRow``, or merges the items into one new piece."""

    def __init__(self, spark: SparkSession, *, seed: int):
        self.spark = spark
        self.seed = seed
        self.op = 0  # monotone piece counter: seeds each piece's rand order
        self.frames: list[tuple[DataFrame, int, int]] = []  # (frame, partitions, op)
        self.schema = None  # the batches' schema, kept across clear()
        self._guard: DataFrame | None = None  # zero partitions, first in unions
        self._empty: pd.DataFrame | None = None  # a cleared reservoir's items

    def clear(self) -> None:
        self.frames = []

    def add(self, frame: DataFrame, sizes: Sequence[int]) -> None:
        """Append a checkpointed frame whose partitions hold ``sizes`` rows."""
        if self.schema is None:
            self.schema = frame.schema
            self._guard = frame.limit(0).localCheckpoint(eager=False)
        self.op += 1
        self.frames.append((frame, len(sizes), self.op))

    def view(self, pending: PendingDecisions) -> DataFrame | None:
        """The items as a lazy frame whose partitions hold
        ``pending.sizes`` rows: every piece with its pending decisions
        applied, then the driver-held rows as one partition, in their
        order."""
        if not self.frames and not pending.held:
            return None
        parts, first = [self._guard], 0
        for frame, n_parts, op in self.frames:
            parts.append(self._apply(pending, frame, first, n_parts, op))
            first += n_parts
        if pending.held:
            parts.append(functools.reduce(DataFrame.unionByName, map(self._one, pending.held)).coalesce(1))
        return functools.reduce(DataFrame.unionByName, parts)

    def _apply(
        self, pending: PendingDecisions, frame: DataFrame, first: int, n_parts: int, op: int
    ) -> DataFrame:
        """A piece (partitions ``first ..``) with its pending decisions
        applied: one filter over the checkpointed frame."""
        parts = slice(first, first + n_parts)
        stored, keep = pending.stored[parts], pending.keep[parts]
        touched = [pid for pid, k in enumerate(keep) if k < stored[pid]]
        if pending.strategy == "cent":
            return keep_offsets(frame, {pid: pending.offsets(first + pid) for pid in touched}, stored)
        windows = {pid: (pending.lo[first + pid], keep[pid]) for pid in touched}
        return keep_first(frame, windows, seed=self.seed, round_no=op)

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
        frame, _, op = place.piece
        base, end = (int(addresses({pid: [0]})[0]) for pid in (place.pid, place.pid + 1))
        if place.offset is None:
            rows = in_order(frame, seed=self.seed, round_no=op)
            rows, key = rows.filter(f"{ROW} >= {base} AND {ROW} < {end}"), RAND
        else:
            rows = frame.selectExpr("*", f"monotonically_increasing_id() AS {ROW}")
            rows, key = rows.filter(f"{ROW} = {base + place.offset}"), ROW
        rows = rows.orderBy(F.expr(key)).limit(place.rank + 1).offset(place.rank)
        return rows.selectExpr(*[f"`{c}`" for c in frame.columns])

    def _one(self, row: Any) -> DataFrame:
        """A held row as a lazy frame of one partition: a ``LazyRow`` read
        from its place, any other row from local data."""
        if isinstance(row, LazyRow):
            return self._select(row.place)
        local = pd.DataFrame([row], columns=self.schema.names)
        return self.spark.createDataFrame(local, schema=self.schema).coalesce(1)

    def fetch(self, place: Place) -> dict[str, Any]:
        """The values of the row at ``place``, with the types of a
        ``to_pandas()`` row: one Spark job (the first fetch adds one to
        learn the pandas dtypes)."""
        (row,) = self._select(place).collect()
        # every non-null value cast to its column's pandas dtype
        item, empty = row.asDict(), self._empty_items()
        dtypes = {c: t for c, t in empty.dtypes.items() if item[c] is not None}
        return dict(pd.DataFrame([item], columns=empty.columns).astype(dtypes).iloc[0])

    def merge(self, view: DataFrame, P: int) -> list[int]:
        """Rewrite the items into one piece of at most ``P`` partitions in
        one pass, sized by ``observe`` counts over the merged partitions."""
        merged, sizes = observed_sizes(view.coalesce(P), P, lambda df: df.localCheckpoint(eager=True))
        sizes = sizes[: merged.rdd.getNumPartitions()]
        self.frames = []
        self.add(merged, sizes)
        return sizes

    def _empty_items(self) -> pd.DataFrame:
        """An empty reservoir's items, with the columns and pandas dtypes
        of ``to_pandas()``: one Spark job, then none."""
        if self._empty is None:
            self._empty = self.spark.createDataFrame([], self.schema).toPandas()
        return self._empty

    def to_pandas(self, view: DataFrame | None, rows: Sequence[LazyRow] = ()) -> pd.DataFrame:
        """The items of ``view``, then ``rows``, realized in one Spark job;
        each of ``rows`` keeps the values read for it."""
        if rows:
            frames = ([view] if view is not None else []) + [self._select(r.place) for r in rows]
            out = functools.reduce(DataFrame.unionByName, frames).toPandas()
            for i, row in enumerate(rows, start=len(out) - len(rows)):
                row.fill(dict(out.iloc[i]))
            return out
        if view is not None:
            return view.toPandas()
        if self.schema is None:
            return pd.DataFrame()
        return self._empty_items().copy()


class CoPartitionedReservoir:
    """Reservoir co-partitioned with incoming batches (Fig. 5(b)).

    The rows live in checkpointed *pieces* (``SparkPieces``) — the last
    merge and every batch since — which no operation rewrites. Reservoir
    partitions coincide with the pieces' partitions (the automatic
    co-partitioning of Sec. 5.2), and the driver's ``PendingDecisions``
    say which of their rows are items: per partition, a window of a
    random order of its rows (distributed decisions) or the kept offsets
    (centralized), and the rows ``insert_rows`` put back, which stay on
    the driver. ``sizes`` (items per partition) and ``count`` are read
    there, with no Spark job. An operation only drops items or adds rows,
    so every view of the items between merges agrees with the ones before
    it.

    Spark jobs, as measured: ``keep_random``, ``insert_rows``,
    ``extract_one``, and ``insert_all`` and ``replace_random`` given a
    batch the caller sized (``DRTBS.advance`` sizes it in one job), run
    none. ``extract_one`` returns a stored row as a ``LazyRow``, read in
    1 job (a top-1 over its piece) when something first reads its values;
    the first read adds 1 to learn the pandas dtypes of an item.
    ``to_pandas`` runs 1, with the extracted rows it is given. The
    reservoir *merges* when it has more than ``4·P`` partitions: one pass
    (1 job) applies the pending decisions through ``common.keep_first`` or
    ``common.keep_offsets``, unions the held rows, ``coalesce``-s to
    ``P`` partitions, reads their sizes through ``DataFrame.observe`` and
    checkpoints. Cent-CP adds 1 job per piece that ships more than 64
    offsets, to broadcast its bitmaps (a saturated Cent-CP round at 10k
    rows, n = 20k, P = 4: 7 jobs when it merges five pieces). So a Dist-CP
    D-R-TBS round runs 1 job per non-empty batch and 1 per merge. ``df``
    is the lazy view of the items that a merge checkpoints.

    CRITICAL evaluation-order invariants: ``spark_partition_id()``,
    ``monotonically_increasing_id()`` and ``rand`` take the partition index
    of the plan they are evaluated over, and ``rand`` advances once per
    row it is evaluated on. Every row address and every piece's ``rand``
    order (the filters, the fetch) is therefore projected directly over one
    checkpointed piece, whose partitions and offsets the driver counted,
    before any row is dropped (``common.in_order``); every filter, union and
    the merge's ``coalesce`` sit above those projections. Unions put a
    zero-partition frame first: Spark 4.1 merges partition i of every
    child when all of them report a single partition
    (``spark.sql.unionOutputPartitioning``), and one child that does not
    keeps the partitions concatenated, so the view's partitions are the
    ``sizes`` the driver holds. Over a frame of local data Spark's
    optimizer would evaluate the ids on the driver as if it were one
    partition, so batches arrive checkpointed (``DRTBS.advance``).

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
        return self.pending.sizes

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

    def extract_one(self) -> Mapping[str, Any] | None:
        """Remove and return one uniformly random item (for the latent
        sample's partial-item moves): a stored row as a ``LazyRow``, read
        only when something reads its values, or a held row as it was put
        back."""
        if self.count == 0:
            return None
        item = self.pending.extract_one(self.pieces.row)
        self._changed()
        return item

    def insert_rows(self, rows: list[dict[str, Any]]) -> None:
        if not rows:
            return
        if self.pieces.schema is None:
            raise RuntimeError("insert_rows into an uninitialized reservoir")
        self.pending.insert_rows(rows)
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
        row = self.df.filter(f"{self.SLOT} = {slot}").drop(self.SLOT).toPandas()
        self.live_slots = self.live_slots[self.live_slots != slot]
        self._materialize(self.df.filter(f"{self.SLOT} != {slot}"))
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
