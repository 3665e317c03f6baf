"""Tests for D-R-TBS on Spark — all storage/decision variants.

The driver-side weight dynamics (W, C, saturation branching) are shared
with the exhaustively-tested serial R-TBS, so these tests focus on:
(i) the distributed scalar state exactly tracking the serial trajectory
for the same batch-size sequence, (ii) structural invariants of the
distributed reservoir, and (iii) cross-variant agreement.
"""
import itertools
import math
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.rtbs import RTBS
from repro.distributed import DRTBS
from repro.distributed.reservoir import (
    CoPartitionedReservoir,
    KVReservoir,
    central_positions,
    partition_sizes,
)

SCHEMA = "t long, i long"


def make_batch(spark, t, size):
    return spark.createDataFrame(
        pd.DataFrame({"t": [t] * size, "i": list(range(size))}), schema=SCHEMA
    )


VARIANTS = [
    dict(storage="cp", strategy="dist"),
    dict(storage="cp", strategy="cent"),
    dict(storage="kv", retrieval="cj"),
    dict(storage="kv", retrieval="rj"),
]
IDS = ["cp-dist", "cp-cent", "kv-cj", "kv-rj"]


class TestScalarStateMatchesSerial:
    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_weight_trajectory(self, spark, kw):
        """W_t and C_t depend only on (λ, n, batch sizes): the distributed
        version must track the serial one exactly."""
        lam, n = 0.4, 25
        sched = [40, 10, 0, 5, 0, 12, 30]
        d = DRTBS(spark, lam, n, seed=3, **kw)
        s = RTBS(lam, n, seed=99)
        for t, b in enumerate(sched):
            d.advance(make_batch(spark, t, b))
            s.advance([(t, i) for i in range(b)])
            assert abs(d.total_weight - s.total_weight) < 1e-7, (t, kw)
            assert abs(d.sample_weight - s.sample_weight) < 1e-7, (t, kw)

    def test_invalid_params(self, spark):
        with pytest.raises(ValueError):
            DRTBS(spark, -0.1, 10)
        with pytest.raises(ValueError):
            DRTBS(spark, 0.1, 0)
        with pytest.raises(ValueError):
            DRTBS(spark, 0.1, 10, storage="bogus")


class TestStructuralInvariants:
    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_reservoir_count_is_floor_C(self, spark, kw):
        lam, n = 0.5, 20
        sched = [40, 0, 0, 5, 0, 12, 0, 0, 3]
        d = DRTBS(spark, lam, n, seed=1, **kw)
        for t, b in enumerate(sched):
            d.advance(make_batch(spark, t, b))
            assert d.reservoir.count == math.floor(d.sample_weight + 1e-9), (t, kw)
            # partial present iff C fractional
            frac = d.sample_weight - math.floor(d.sample_weight + 1e-9)
            assert (d.partial is not None) == (frac > 1e-9), (t, kw)

    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_hard_cap_and_realized_size(self, spark, kw):
        lam, n = 0.3, 15
        d = DRTBS(spark, lam, n, seed=2, **kw)
        for t in range(6):
            d.advance(make_batch(spark, t, 20))
            out = d.sample_pandas()
            assert len(out) <= n
            C = d.sample_weight
            assert len(out) in {math.floor(C + 1e-9), math.ceil(C - 1e-9)}

    def test_reservoir_items_all_from_stream(self, spark):
        d = DRTBS(spark, 0.3, 12, seed=4, storage="cp", strategy="dist")
        seen = set()
        for t in range(5):
            d.advance(make_batch(spark, t, 10))
            seen |= {(t, i) for i in range(10)}
            got = {(r.t, r.i) for r in d.sample_pandas().itertuples()}
            assert got <= seen

    def test_no_duplicate_rows_in_reservoir(self, spark):
        d = DRTBS(spark, 0.2, 30, seed=5, storage="cp", strategy="dist")
        for t in range(6):
            d.advance(make_batch(spark, t, 25))
            pdf = d.reservoir.to_pandas()
            assert not pdf.duplicated().any()


class TestEdgeCases:
    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_edge_schedule(self, spark, lam):
        """A batch larger than n, a batch at dt = 0, an empty batch and a
        gap so long that e^{-λ·dt}·W is below the ulp of the next batch's
        size: the state follows serial R-TBS and the invariants hold."""
        n = 5
        sched = [(10, 1.0), (4, 0.0), (0, 1.0), (3, 400.0)]
        d = DRTBS(spark, lam, n, seed=12, storage="cp", strategy="dist")
        s = RTBS(lam, n, seed=12)
        for t, (b, dt) in enumerate(sched):
            d.advance(make_batch(spark, t, b), dt=dt)
            s.advance([(t, i) for i in range(b)], dt=dt)
            assert (d.total_weight, d.sample_weight) == (s.total_weight, s.sample_weight)
            d.latent.check_invariants()
        if lam > 0:
            assert d.total_weight == d.sample_weight == 3.0
            got = d.sample_pandas().sort_values("i").reset_index(drop=True)
            pd.testing.assert_frame_equal(got, make_batch(spark, 3, 3).toPandas())
        else:
            assert d.total_weight == 17.0 and d.reservoir.count == n

    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_cleared_reservoir_keeps_schema(self, spark, kw):
        """After the decay empties the reservoir (C < 1), a realized
        sample has the batch's columns and dtypes, with the partial item
        and without it."""
        schema = "t long, i long, x double, s string"
        pdf = pd.DataFrame({"t": [0] * 5, "i": range(5), "x": [0.5] * 5, "s": list("abcde")})
        d = DRTBS(spark, 3.0, 10, seed=4, **kw)
        d.advance(spark.createDataFrame(pdf, schema=schema))
        d.advance(spark.createDataFrame(pdf.iloc[:0], schema=schema))
        assert d.reservoir.count == 0 and d.partial is not None
        sizes = set()
        for seed in range(20):
            out = d.sample_pandas(rng=np.random.default_rng(seed))
            assert list(out.columns) == list(pdf.columns), out
            assert list(out.dtypes) == list(pdf.dtypes), out.dtypes
            sizes.add(len(out))
            if sizes == {0, 1}:
                break
        assert sizes == {0, 1}
        # the empty frame is built once: realizing it again runs no Spark job
        sc = spark.sparkContext
        sc.setJobGroup("realize-cleared", "realize a cleared reservoir")
        try:
            d.sample_pandas(rng=np.random.default_rng(0))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert list(sc.statusTracker().getJobIdsForGroup("realize-cleared")) == []


class TestPartitionSizes:
    @pytest.mark.parametrize("kw", VARIANTS[:2], ids=IDS[:2])
    def test_sizes_exact_across_coalesces(self, spark, kw):
        """With one target partition the co-partitioned reservoir merges
        whenever it holds more than 4 partitions, which shows as a drop in
        ``len(sizes)``. After every round of a schedule that runs all four
        Alg. 2 branches, an empty batch and a 2.5-unit gap, the driver's
        sizes are the partitions' row counts, their sum is |A| = ⌊C⌋, and
        reading them runs no Spark job."""
        lam, n = 0.3, 20
        sched = [(8, 1.0), (30, 1.0), (10, 1.0), (0, 1.0), (3, 2.5), (6, 1.0),
                 (12, 1.0), (9, 1.0), (14, 1.0), (5, 1.0), (25, 1.0), (7, 1.0)]
        d = DRTBS(spark, lam, n, seed=8, target_partitions=1, **kw)
        branches, n_parts = set(), []
        sc = spark.sparkContext
        for t, (b, dt) in enumerate(sched):
            saturated = d.total_weight >= n - 1e-9
            d.advance(make_batch(spark, t, b), dt=dt)
            W = d.total_weight
            if saturated:
                branches.add("saturated" if W >= n - 1e-9 else "undershoot")
            else:
                branches.add("overshoot" if W > n + 1e-9 else "unsaturated")
            res = d.reservoir
            sc.setJobGroup(f"read-sizes-{t}", "read the driver's partition sizes")
            try:
                sizes, count = list(res.sizes), res.count
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            rows = res.df.rdd.glom().map(len).collect() if res.df is not None else []
            assert sizes == rows, (t, sizes, rows)
            counted_rows = res.df.count() if res.df is not None else 0
            assert count == counted_rows == math.floor(d.sample_weight + 1e-9), (t, count)
            d.latent.check_invariants()
            n_parts.append(len(sizes))
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        for t in range(len(sched)):
            assert list(sc.statusTracker().getJobIdsForGroup(f"read-sizes-{t}")) == [], t
        assert branches == {"unsaturated", "overshoot", "undershoot", "saturated"}
        assert any(b < a for a, b in zip(n_parts, n_parts[1:])), ("no merge", n_parts)


class TestArrowOff:
    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_same_sample_without_arrow(self, spark, kw):
        """Spark leaves Arrow off by default. Every variant runs without
        it, through an overshoot, a saturated round whose centralized
        picks exceed 64 (bitmap literals in ``common.keep_offsets``'
        filter), an empty batch and an undershoot that puts the partial
        item back, and realizes the sample of an Arrow-on run with the
        same seed."""
        lam, n = 1.0, 100
        sched = [150, 300, 0, 10, 260]
        key = "spark.sql.execution.arrow.pyspark.enabled"
        old = spark.conf.get(key)
        samples = []
        try:
            for arrow in ["true", "false"]:
                spark.conf.set(key, arrow)
                d = DRTBS(spark, lam, n, seed=13, **kw)
                for t, b in enumerate(sched):
                    # batches built without pandas, so their partitions
                    # do not depend on Arrow
                    d.advance(spark.range(0, b, 1, 4).selectExpr(f"{t} AS t", "id AS i"))
                samples.append(d.sample_pandas(rng=np.random.default_rng(3)))
        finally:
            spark.conf.set(key, old)
        assert len(samples[0]) == n
        pd.testing.assert_frame_equal(samples[0], samples[1])


_GROUPS = itertools.count()


def jobs_in(sc, group, action):
    """Run ``action`` in a job group of its own (``group`` and a suffix no
    other call uses, so no earlier job is counted); return its result and
    the number of Spark jobs it launched."""
    group = f"{group}-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        out = action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(list(sc.statusTracker().getJobIdsForGroup(group)))


TYPED_COLUMNS = [
    "CAST(id AS long) AS t",
    "CAST(id AS int) AS i",
    "id * 0.25D AS x",
    "CAST(id / 8 AS decimal(10, 2)) AS d",
    "concat('s', id) AS s",
    "timestamp_seconds(1500000000 + 37 * id) AS ts",
]


def typed_batch(spark, size):
    """``long``, ``int``, ``double``, ``decimal``, ``string`` and
    ``timestamp`` columns in 4 partitions, checkpointed as
    ``DRTBS.advance`` would."""
    return spark.range(0, size, 1, 4).selectExpr(*TYPED_COLUMNS).localCheckpoint(eager=True)


class TestOnePassExtract:
    """``extract_one`` on the co-partitioned reservoir: no Spark job. The
    driver names the picked row by its address or, with a keep still
    pending, by its position in its partition's ``rand`` order; one small
    job over its piece reads it when something reads its values, and the
    rest is never rewritten."""

    @staticmethod
    def filled(spark, strategy):
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=3)
        batch = typed_batch(spark, 40)
        R.insert_all(batch, partition_sizes(batch))
        return R, batch.toPandas()

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_case3_downsample_runs_no_job(self, spark, strategy):
        """The keep and the extract only change the driver's decisions;
        the extracted row is read when its values are."""
        R, source = self.filled(spark, strategy)
        sc = spark.sparkContext
        item, jobs = jobs_in(sc, f"case3-{strategy}", lambda: (R.keep_random(12), R.extract_one())[1])
        assert jobs == 0
        assert R.count == 11 and R.sizes == R.df.rdd.glom().map(len).collect()
        rest = R.to_pandas()
        assert item["i"] not in set(rest["i"]) and item["i"] in set(source["i"])
        assert not rest.duplicated().any()

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_first_read_runs_one_job(self, spark, strategy):
        """A fresh reservoir's first extracted row is read in 1 Spark job,
        over the frame a realization would union in for it, and keeps its
        values: a second read runs none."""
        R, source = self.filled(spark, strategy)
        row, sc = R.extract_one(), spark.sparkContext
        values, first = jobs_in(sc, f"first-read-{strategy}", lambda: dict(row))
        _, again = jobs_in(sc, f"second-read-{strategy}", lambda: dict(row))
        assert (first, again) == (1, 0)
        want = source.set_index("i", drop=False).loc[values["i"]]
        for col, value in values.items():
            assert value == want[col] and type(value) is type(want[col]), col

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_extract_from_one_row_partition(self, spark, strategy):
        """The row ``insert_rows`` puts back becomes a one-row piece, the
        view's last partition; when it is the pick, it is returned with no
        Spark job and its partition is left empty."""
        R, source = self.filled(spark, strategy)
        row = R.extract_one()
        R.keep_random(0)
        R.insert_rows([row])
        assert R.sizes[-1] == 1 and R.count == 1
        assert R.sizes == R.df.rdd.glom().map(len).collect()
        item, jobs = jobs_in(spark.sparkContext, f"held-{strategy}", R.extract_one)
        assert item == row and jobs == 0
        assert R.count == 0 and R.sizes == R.df.rdd.glom().map(len).collect()
        assert R.to_pandas().empty

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_partial_item_round_trip(self, spark, strategy):
        """The partial item holds the values and types of its row in the
        batch's ``toPandas()``, so a realized sample that includes it
        equals those rows, dtypes and all."""
        d = DRTBS(spark, 2.0, 10, seed=9, storage="cp", strategy=strategy)
        d.advance(spark.range(0, 40, 1, 4).selectExpr(*TYPED_COLUMNS))
        d.advance(spark.range(0, 0, 1, 4).selectExpr(*TYPED_COLUMNS))
        assert d.partial is not None and d.reservoir.count == 5
        source = typed_batch(spark, 40).toPandas().set_index("i", drop=False)
        expected = source.loc[d.partial["i"]]
        assert list(d.partial) == list(source.columns)
        for col, value in d.partial.items():
            assert value == expected[col] and type(value) is type(expected[col]), col
        for seed in range(30):
            sample = d.sample_pandas(rng=np.random.default_rng(seed))
            if len(sample) == 6:
                break
        assert len(sample) == 6
        got = sample.sort_values("i").reset_index(drop=True)
        want = source.loc[sorted(sample["i"])].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def range_batch(spark, t, size, n_parts):
    """A checkpointed ``t long, i long`` batch in ``n_parts`` partitions."""
    return spark.range(0, size, 1, n_parts).selectExpr(f"CAST({t} AS long) AS t", "id AS i").localCheckpoint(eager=True)


class TestPieces:
    """The co-partitioned reservoir's rows stay in checkpointed pieces
    between merges; the driver addresses a row by its partition and offset
    in its own piece."""

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_single_partition_pieces_concatenate(self, spark, strategy):
        """Pieces of one partition each — a merge to one partition, a
        one-partition batch, a put-back row — stay apart in the view, as
        ``sizes`` has them, though Spark 4.1 would merge partition i of
        every child of a union whose children all report one partition."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=0, target_partitions=1)
        for t in range(3):
            batch = range_batch(spark, t, 10, 2)
            R.insert_all(batch, partition_sizes(batch))

        def glom():
            return R.df.rdd.glom().map(len).collect()

        assert R.sizes == [30] == glom()
        R.keep_random(20)
        R.insert_rows([R.extract_one()])
        assert R.sizes == [19, 1] == glom()
        R.replace_random(5, range_batch(spark, 9, 10, 1), [10])
        assert R.sizes == glom() and R.count == 20
        rows = R.to_pandas()
        assert len(rows) == 20 and (rows["t"] == 9).sum() == 5
        assert not rows.duplicated().any()

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_extracts_across_pieces(self, spark, strategy):
        """Rows extracted from three unmerged pieces, with keeps pending
        between them, are the rows missing from the view, whose partitions
        hold ``sizes`` rows."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=4, target_partitions=4)
        source = []
        for t, size in enumerate([30, 17, 25]):
            batch = range_batch(spark, t, size, 4)
            R.insert_all(batch, partition_sizes(batch))
            source += [(t, i) for i in range(size)]
        extracted = []
        for k in [60, 50, 40]:
            R.keep_random(k)
            extracted += [R.extract_one() for _ in range(4)]
        assert len(R.pieces.frames) == 3, "merged"
        rows = {(r.t, r.i) for r in R.to_pandas().itertuples()}
        taken = {(r["t"], r["i"]) for r in extracted}
        assert len(taken) == len(extracted) == 12 and not taken & rows
        assert len(rows) == R.count == 36 and rows <= set(source)
        assert R.sizes == R.df.rdd.glom().map(len).collect()


def rows_of(frame):
    return set(map(tuple, frame[["t", "i"]].itertuples(index=False)))


class TestRealizationNests:
    """Between merges the co-partitioned reservoir realizes its items
    from pending decisions; every realization must agree with the earlier
    ones, as a reservoir rewritten by each operation would: the items
    after an operation are some of the items before it plus the rows it
    adds, and an extracted item is one of the items before it."""

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_every_view_nests(self, spark, strategy):
        """Keeps, extracts (by address and by place in a partition's
        ``rand`` order), a put-back row and a replacement on one
        unmerged reservoir, realized after every operation."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=2, target_partitions=4)
        batches = [range_batch(spark, t, 40, 4) for t in range(3)]
        script = [
            ("insert_all", 0), ("extract_one",), ("keep_random", 30), ("extract_one",),
            ("extract_one",), ("insert_rows",), ("insert_all", 1), ("keep_random", 50),
            ("extract_one",), ("keep_random", 40), ("extract_one",), ("replace_random", 2),
            ("extract_one",), ("keep_random", 20), ("extract_one",), ("extract_one",),
        ]
        before, extracted = set(), []
        for op, *args in script:
            added = set()
            if op == "extract_one":
                item = R.extract_one()
                extracted.append((item["t"], item["i"]))
                assert extracted[-1] in before, (op, extracted[-1])
                before.discard(extracted[-1])
            elif op == "insert_rows":
                R.insert_rows([{"t": extracted[-1][0], "i": extracted[-1][1]}])
                added = {extracted[-1]}
            elif op == "keep_random":
                R.keep_random(*args)
            else:
                batch = batches[args[0]]
                if op == "insert_all":
                    R.insert_all(batch, partition_sizes(batch))
                else:
                    R.replace_random(15, batch, partition_sizes(batch))
                added = rows_of(batch.toPandas())
            after = rows_of(R.to_pandas())
            assert len(after) == R.count and after <= before | added, (op, after - before - added)
            before = after
        assert len(R.pieces.frames) == 4, "merged"  # three batches and the row put back

    @pytest.mark.parametrize("kw", VARIANTS[:2], ids=IDS[:2])
    def test_samples_nest_across_rounds(self, spark, kw):
        """D-R-TBS realized every round: S_{t+1} ⊆ A_t ∪ {π_t} ∪ B_{t+1},
        and so are A_{t+1} and π_{t+1}, through every Alg. 2 branch."""
        lam, n = 0.3, 20
        sched = [(8, 1.0), (30, 1.0), (10, 1.0), (0, 1.0), (3, 2.5), (6, 1.0),
                 (12, 1.0), (9, 1.0), (0, 1.0), (14, 1.0), (5, 1.0), (0, 1.0)]
        d = DRTBS(spark, lam, n, seed=6, target_partitions=4, **kw)
        before, merges = set(), 0
        for t, (b, dt) in enumerate(sched):
            parts = len(d.reservoir.sizes)
            d.advance(range_batch(spark, t, b, 4), dt=dt)
            merges += len(d.reservoir.sizes) < parts
            allowed = before | {(t, i) for i in range(b)}
            items = rows_of(d.reservoir.to_pandas())
            partial = {(d.partial["t"], d.partial["i"])} if d.partial is not None else set()
            sample = rows_of(d.sample_pandas(rng=np.random.default_rng(t)))
            assert items | partial <= allowed and sample <= allowed, (t, (items | partial) - allowed)
            before = items | partial
        assert 0 < merges, "no merge"


class TestLazyPartial:
    """The co-partitioned reservoir's partial item is read from Spark only
    when something reads its values: ejecting it, putting it back, a
    merge and ``clear()`` do not, and when it is read changes nothing."""

    SCHED = [(8, 1.0), (30, 1.0), (10, 1.0), (0, 1.0), (3, 2.5), (6, 1.0), (12, 1.0),
             (9, 1.0), (0, 0.5), (0, 12.0), (14, 1.0), (5, 1.0), (0, 1.0), (25, 0.0), (0, 2.5), (4, 1.0)]

    @staticmethod
    def play(spark, kw, P, read):
        """D-R-TBS over ``SCHED``; ``read`` reads the partial item's values
        and a realized sample after every round. Returns the sampler and
        the number of merges and clears."""
        d = DRTBS(spark, 0.3, 20, seed=6, target_partitions=P, **kw)
        res, counts = d.reservoir, {"_merge": 0, "clear": 0}
        for name in counts:

            def counted(op=getattr(res, name), name=name):
                counts[name] += 1
                return op()

            setattr(res, name, counted)
        sc = spark.sparkContext
        for t, (b, dt) in enumerate(TestLazyPartial.SCHED):
            d.advance(range_batch(spark, t, b, 4), dt=dt)
            present, jobs = jobs_in(sc, f"lazy-{kw['strategy']}-{P}-{read}-{t}", lambda: d.partial is not None)
            assert jobs == 0 and present == (d.sample_weight % 1 > 1e-9), t
            if read:
                if present:
                    dict(d.partial)
                d.sample_pandas(rng=np.random.default_rng(t))
        return d, counts

    @pytest.mark.parametrize("P", [1, 4])
    @pytest.mark.parametrize("kw", VARIANTS[:2], ids=IDS[:2])
    def test_read_late_or_early(self, spark, kw, P):
        """Reading the partial item after every round, or only at the end,
        gives the same partial item, dtypes and all, and the same realized
        sample, through merges and a Case-1 ``clear()``. A realized sample
        runs 1 Spark job whether or not it draws the unread partial item,
        and leaves it unread: its first read runs 1 job, a second none."""
        early, counts = self.play(spark, kw, P, read=True)
        late, late_counts = self.play(spark, kw, P, read=False)
        assert counts == late_counts and counts["_merge"] > 0 and counts["clear"] > 0, counts
        assert late.partial is not None
        draws = [np.random.default_rng(seed).random() < late.sample_weight % 1 for seed in range(40)]
        seed, other = draws.index(True), draws.index(False)
        group, sc = f"sample-{kw['strategy']}-{P}", spark.sparkContext
        without, jobs = jobs_in(sc, group + "-without", lambda: late.sample_pandas(rng=np.random.default_rng(other)))
        assert jobs == 1 and len(without) == late.reservoir.count
        got, jobs = jobs_in(sc, group + "-with", lambda: late.sample_pandas(rng=np.random.default_rng(seed)))
        assert jobs == 1 and len(got) == late.reservoir.count + 1
        pd.testing.assert_frame_equal(got, early.sample_pandas(rng=np.random.default_rng(seed)))
        b, first = jobs_in(sc, group + "-first-read", lambda: dict(late.partial))
        _, again = jobs_in(sc, group + "-second-read", lambda: dict(late.partial))
        assert (first, again) == (1, 0)
        a = dict(early.partial)
        assert a == b and [type(v) for v in a.values()] == [type(v) for v in b.values()]
        pd.testing.assert_frame_equal(pd.DataFrame([a]), pd.DataFrame([b]))
        pd.testing.assert_frame_equal(late.reservoir.to_pandas(), early.reservoir.to_pandas())

    @pytest.mark.parametrize("P", [1, 4])
    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_put_back_row_survives_merge(self, spark, strategy, P):
        """A row Swap1 puts back unread, then a merge rewrites, comes back
        with its values and pandas dtypes; the lazy row itself reads them
        from the piece it was taken from, in 1 Spark job: neither the
        put-back nor the merge read it."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=5, target_partitions=P)
        batch = typed_batch(spark, 40)
        R.insert_all(batch, partition_sizes(batch))
        source = batch.toPandas().set_index("i", drop=False)
        R.keep_random(30)
        row = R.extract_one()
        R.insert_rows([row])  # Swap1's put-back, unread
        for k in range(1, 5 * P):
            if len(R.pieces.frames) == 1:  # merged
                break
            more = spark.range(100 * k, 100 * k + 4, 1, 1).selectExpr(*TYPED_COLUMNS).localCheckpoint(eager=True)
            R.insert_all(more, [4])
        assert len(R.pieces.frames) == 1, "no merge"
        i, jobs = jobs_in(spark.sparkContext, f"put-back-read-{strategy}-{P}", lambda: row["i"])
        assert jobs == 1
        items = R.to_pandas().set_index("i", drop=False)
        assert R.sizes == R.df.rdd.glom().map(len).collect()
        ours = items.loc[items.index < 40].sort_index()
        pd.testing.assert_frame_equal(ours, source.loc[ours.index])
        assert i in ours.index
        for col, value in row.items():
            want = source.loc[i, col]
            assert value == want and type(value) is type(want), col
        while True:  # extract until the row comes back, read from the merged piece
            item = R.extract_one()
            if item["i"] == i and item["t"] == row["t"]:
                break
        assert dict(item) == dict(row)
        assert [type(v) for v in item.values()] == [type(v) for v in row.values()]

    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_nulls_read_late_or_early(self, spark, strategy):
        """Rows with long, double and string nulls read the same whether
        each is read at once or after a realization that held both, where
        every column holds a null; the realization reads neither, so each
        read runs its own Spark job. A null is None and a value keeps its
        column's pandas dtype."""
        rows = [(1, None, 2.5, "a"), (2, 7, None, None)]
        batch = spark.createDataFrame(rows, "t long, k long, x double, s string").localCheckpoint(eager=True)
        reads, sc = [], spark.sparkContext
        for early in (True, False):
            R = CoPartitionedReservoir(spark, strategy=strategy, seed=3)
            R.insert_all(batch, partition_sizes(batch))
            extracted = [R.extract_one(), R.extract_one()]
            if not early:
                R.to_pandas(*extracted)
            read = [jobs_in(sc, f"nulls-{strategy}-{early}", lambda: dict(row)) for row in extracted]
            assert [jobs for _, jobs in read] == [1, 1], read
            reads.append(sorted((row for row, _ in read), key=lambda row: row["t"]))
        assert reads[0] == reads[1], reads
        assert [type(v) for r in reads[0] for v in r.values()] == [type(v) for r in reads[1] for v in r.values()]
        assert reads[0][0]["k"] is None and reads[0][1]["x"] is None and reads[0][1]["s"] is None
        assert type(reads[0][1]["k"]) is np.int64 and reads[0][1]["k"] == 7

    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_null_partial_read_or_unread(self, spark, kw):
        """A partial item that holds its column's only null realizes the
        same sample, dtypes and all, in 1 Spark job, whether or not its
        values were read first, and every variant gives the sample the
        dtypes Spark gives those rows: the null long makes its column
        float64."""
        schema = "t long, k long, x double, s string"
        seed = next(s for s in range(40) if np.random.default_rng(s).random() < 0.5)

        def play(read):
            d = DRTBS(spark, math.log(2), 20, seed=4, target_partitions=2, **kw)
            d.advance(spark.createDataFrame([(0, None, 0.5, "p")], schema))  # C = 1
            d.advance(spark.createDataFrame([], schema))  # Alg. 3 case 1: C = 0.5, the row is the partial item
            full = spark.range(0, 5, 1, 2).selectExpr("1L AS t", "id AS k", "id * 0.25D AS x", "concat('s', id) AS s")
            d.advance(full.localCheckpoint(eager=True), dt=0.0)  # C = 5.5
            assert d.reservoir.count == 5 and d.partial is not None
            if read:
                assert pd.isna(dict(d.partial)["k"])
            group = f"null-partial-{'-'.join(kw.values())}-{read}"
            return jobs_in(spark.sparkContext, group, lambda: d.sample_pandas(rng=np.random.default_rng(seed)))

        (read, read_jobs), (unread, unread_jobs) = play(True), play(False)
        assert read_jobs == unread_jobs == 1
        pd.testing.assert_frame_equal(read, unread)
        assert len(read) == 6 and read["k"].isna().sum() == 1 and read["t"].tolist()[-1] == 0
        assert read.dtypes.astype(str).tolist() == ["int64", "float64", "float64", "object"]


class TestAllNumericRows:
    """A row crosses between Spark and Python one way in each direction:
    read column by column from a ``toPandas()`` frame, written as local
    data.
    Read as ``frame.iloc[k]``, a row of all-numeric columns, one of them a
    float, would turn every long into a float, which a key-value store
    cannot write back into a ``long`` column."""

    @pytest.mark.parametrize("arrow", ["true", "false"])
    @pytest.mark.parametrize("kw", VARIANTS, ids=IDS)
    def test_partial_keeps_column_types(self, spark, kw, arrow):
        """λ = ln 2, n = 20, P = 2, batches of 30/0/7/0/3 rows 0.7 apart:
        the partial item moves by Swap1 and Move1 through every variant,
        and after each round each of its values has the type that its
        batch's ``toPandas()`` gives it (``k`` is null in every row of
        batch 2 and in no other row), and a null is None. A co-partitioned
        reservoir takes back a plain mapping whose ``long`` column holds
        NaN, with Arrow on or off."""
        key = "spark.sql.execution.arrow.pyspark.enabled"
        old = spark.conf.get(key)
        spark.conf.set(key, arrow)
        try:
            d = DRTBS(spark, math.log(2), 20, seed=4, target_partitions=2, **kw)
            sources, partials = {}, 0
            for t, b in enumerate([30, 0, 7, 0, 3]):
                columns = [f"CAST({t} AS long) AS t", "id AS i", "id * 0.5D AS x", f"IF({t} = 2, NULL, id) AS k"]
                batch = spark.range(0, b, 1, 2).selectExpr(*columns).localCheckpoint(eager=True)
                sources[t] = batch.toPandas()
                d.advance(batch, dt=0.7)
                if d.partial is None:
                    continue
                partials += 1
                row = dict(d.partial)
                source = sources[int(row["t"])]
                for col, value in row.items():
                    want = source[col].iloc[int(row["i"])]
                    if pd.isna(want):
                        assert value is None, (t, col, value)
                    else:
                        assert value == want and type(value) is type(want), (t, col, value, want)
            assert partials >= 3
            if kw["storage"] == "cp":
                count = d.reservoir.count
                d.reservoir.insert_rows([{"t": 9, "i": 0, "x": 0.5, "k": np.nan}])
                out = d.reservoir.to_pandas()
                assert len(out) == count + 1 and out.loc[out["t"] == 9, "k"].isna().tolist() == [True]
        finally:
            spark.conf.set(key, old)


class TestPutBackPieces:
    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_swap1_cycles_merge(self, spark, strategy):
        """Swap1 cycles: extract a row, then put back the row extracted the
        cycle before, unread. Each row put back is a piece of one
        partition, which extracts and merges treat like any other. After
        every operation the driver's sizes are the view's partitions, and
        reading them runs no Spark job; a put-back runs none but its
        merge's, and the put-backs alone make the reservoir merge."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=7, target_partitions=1)
        batch = range_batch(spark, 0, 12, 2)
        R.insert_all(batch, partition_sizes(batch))
        sc, n_parts = spark.sparkContext, [len(R.sizes)]

        def check(step):
            sizes, jobs = jobs_in(sc, f"put-back-sizes-{strategy}-{step}", lambda: R.sizes)
            assert jobs == 0 and sizes == R.df.rdd.glom().map(len).collect(), (step, sizes)
            n_parts.append(len(sizes))

        previous = R.extract_one()
        check("first")
        for k in range(6):
            row = R.extract_one()
            check(f"extract-{k}")
            _, jobs = jobs_in(sc, f"put-back-{strategy}-{k}", lambda: R.insert_rows([previous]))
            check(f"insert-{k}")
            assert jobs == (n_parts[-1] < n_parts[-2]), (k, jobs, n_parts)
            previous = row
        assert any(b < a for a, b in zip(n_parts, n_parts[1:])), ("no merge", n_parts)
        _, jobs = jobs_in(sc, f"put-back-read-{strategy}", lambda: previous["t"])
        assert jobs == 1, "read before"
        items = rows_of(R.to_pandas())
        assert len(items) == R.count == 11 and (previous["t"], previous["i"]) not in items
        assert items | {(previous["t"], previous["i"])} == {(0, i) for i in range(12)}


class TestJobsPerRound:
    """Spark jobs of co-partitioned D-R-TBS rounds, read from
    ``statusTracker``: one to size a non-empty batch and one more when the
    reservoir merges, for either decision strategy. An extract runs none:
    no row is fetched during a round."""

    def test_bursty_rounds(self, spark, monkeypatch):
        from repro.distributed import reservoir

        P, lam = 4, 0.07
        cycle = [1353, 0, 960, 5687]  # saturated, undershoot, unsaturated, overshoot
        n = math.floor(sum(cycle) / len(cycle) / (1 - math.exp(-lam)))
        d = math.exp(-lam)
        fill = round(sum(b * d ** (3 - i) for i, b in enumerate(cycle)) / (1 - d**4))
        sizings, fetches, merges = [], [], []
        sizes_of = reservoir.partition_sizes
        monkeypatch.setattr(reservoir, "partition_sizes", lambda df: sizings.append(df) or sizes_of(df))
        sampler = DRTBS(spark, lam, n, seed=5, storage="cp", strategy="dist", target_partitions=P)
        sampler.advance(range_batch(spark, 0, fill, P))
        res = sampler.reservoir
        fetch, merge = res.pieces.fetch, res._merge
        monkeypatch.setattr(res.pieces, "fetch", lambda *a: fetches.append(a) or fetch(*a))
        monkeypatch.setattr(res, "_merge", lambda: merges.append(1) or merge())
        sc = spark.sparkContext
        empty = range_batch(spark, 0, 0, P)
        for t, b in enumerate(cycle * 3 + [0] * 50, start=1):
            batch = range_batch(spark, t, b, P) if b else empty
            counted = len(sizings), len(fetches), len(merges)
            _, jobs = jobs_in(sc, f"bursty-{t}", lambda: sampler.advance(batch))
            sized, fetched, merged = (len(x) - c for x, c in zip((sizings, fetches, merges), counted))
            assert sized == 1 and merged <= 1 and fetched == 0, (t, sized, merged, fetched)
            assert jobs == (b > 0) + merged, (t, b, jobs, merged)
            rows = sizes_of(res.df)  # glom() lengths, counted in the JVM
            assert res.sizes == rows and sum(rows) == math.floor(sampler.sample_weight + 1e-9), t
            assert len(res.sizes) <= 4 * P + P, (t, res.sizes)
        assert len(merges) >= 3, "a cycle without a merge"

    def test_cent_merging_rounds(self, spark, monkeypatch):
        """Cent-CP: a saturated round runs 1 job to size its batch, and a
        round that merges 1 more, the merge's pass: every partition's
        offset bitmap is a literal of its filter, however many pieces
        ship offsets."""
        P, n, b = 4, 4000, 2000
        sampler = DRTBS(spark, 0.3, n, seed=5, storage="cp", strategy="cent", target_partitions=P)
        sampler.advance(range_batch(spark, 0, 2 * n, P))
        res, merges = sampler.reservoir, []
        merge = res._merge
        monkeypatch.setattr(res, "_merge", lambda: merges.append(1) or merge())
        sc = spark.sparkContext
        for t in range(1, 13):
            batch = range_batch(spark, t, b, P)
            before = len(merges)
            _, jobs = jobs_in(sc, f"cent-round-{t}", lambda: sampler.advance(batch))
            merged = len(merges) - before
            assert sampler.total_weight >= n and merged <= 1, (t, merged)
            assert jobs == 1 + merged, (t, jobs, merged)
            assert res.sizes == partition_sizes(res.df) and res.count == n, t
        assert len(merges) >= 2, "fewer than two merges"


class TestBatchCheckpoint:
    """``advance`` stores a batch that arrives as a checkpoint already
    written as it is, and checkpoints any other frame once, lazily, for
    its sizing pass to write."""

    def test_checkpoints_only_unwritten_batches(self, spark, monkeypatch):
        d = DRTBS(spark, 0.0, 1000, seed=2, storage="cp", strategy="dist", target_partitions=4)
        d.advance(range_batch(spark, 0, 40, 4))
        lazy = spark.range(0, 40, 1, 4).selectExpr("CAST(3 AS long) AS t", "id AS i").localCheckpoint(eager=False)
        batches = [("eager", range_batch(spark, 1, 40, 4), 0), ("local data", make_batch(spark, 2, 40), 1),
                   ("lazy", lazy, 1)]
        frame = type(lazy)
        calls = []
        checkpoint = frame.localCheckpoint
        monkeypatch.setattr(frame, "localCheckpoint", lambda df, *a, **kw: calls.append(df) or checkpoint(df, *a, **kw))
        for kind, batch, want in batches:
            made = len(calls)
            d.advance(batch)
            assert len(calls) - made == want, kind
            assert d.reservoir.sizes == d.reservoir.df.rdd.glom().map(len).collect(), kind
        assert d.reservoir.count == 160 and len(d.reservoir.sizes) == 16


class TestExtracts:
    @pytest.mark.parametrize("strategy", ["dist", "cent"])
    def test_extracts_never_merge(self, spark, monkeypatch, strategy):
        """An extract leaves its row out of the kept offsets (centralized)
        or moves its partition's window of the ``rand`` order up
        (distributed), even from a partition no keep has touched, so no
        number of extracts makes the reservoir merge: an extract of a
        stored row runs no job."""
        R = CoPartitionedReservoir(spark, strategy=strategy, seed=1, target_partitions=2)
        batch = range_batch(spark, 0, 200, 2)
        R.insert_all(batch, partition_sizes(batch))
        merges = []
        merge = R._merge
        monkeypatch.setattr(R, "_merge", lambda: merges.append(1) or merge())
        sc = spark.sparkContext
        for k in range(1, 71):
            _, jobs = jobs_in(sc, f"{strategy}-{k}", R.extract_one)
            assert (jobs, merges) == (0, []), k
        assert R.sizes == R.df.rdd.glom().map(len).collect() and R.count == 130


class TestNoCallSiteCapture:
    """PySpark 4.1 records the Python call site of every ``Column`` method
    call, importing IPython on the way (about 25 MB of the driver's
    Python memory). Every pass of both reservoirs builds its expressions
    as SQL strings, so no round calls it."""

    @pytest.mark.parametrize("kw", VARIANTS, ids=["dist", "cent", "kv-cj", "kv-rj"])
    def test_rounds_capture_no_call_site(self, spark, kw, monkeypatch):
        from pyspark.errors import utils
        from pyspark.sql import functions as F

        calls = []
        capture = utils._capture_call_site

        def recorded(depth):
            calls.append(depth)
            return capture(depth)

        monkeypatch.setattr(utils, "_capture_call_site", recorded)
        lam, n = 0.3, 20
        sched = [(8, 1.0), (30, 1.0), (10, 1.0), (0, 1.0), (3, 2.5), (6, 1.0),
                 (12, 1.0), (9, 1.0), (14, 1.0), (5, 1.0)]
        d = DRTBS(spark, lam, n, seed=8, target_partitions=1, **kw)
        branches = set()
        for t, (b, dt) in enumerate(sched):
            saturated = d.total_weight >= n - 1e-9
            d.advance(spark.range(0, b, 1, 4).selectExpr(f"{t} AS t", "id AS i"), dt=dt)
            W = d.total_weight
            if saturated:
                branches.add("saturated" if W >= n - 1e-9 else "undershoot")
            else:
                branches.add("overshoot" if W > n + 1e-9 else "unsaturated")
        d.sample_pandas(rng=np.random.default_rng(0))
        assert branches == {"unsaturated", "overshoot", "undershoot", "saturated"}
        assert calls == []
        F.col("t") == 1  # the probe sees a Column method call
        assert calls


class TestKVReservoir:
    @pytest.mark.parametrize("retrieval", ["cj", "rj"])
    def test_insert_rows_after_keep_random(self, spark, retrieval):
        """Swap1 after a keep (Alg. 3 case 3): the row put back keeps its
        values and its new slot, though the keep's join reordered the
        reservoir's columns."""
        R = KVReservoir(spark, retrieval=retrieval, seed=0)
        batch = make_batch(spark, 7, 12).localCheckpoint(eager=True)
        R.insert_all(batch, partition_sizes(batch))
        R.keep_random(6)
        row = R.extract_one()
        R.insert_rows([row])
        slots = sorted(R.df.select(KVReservoir.SLOT).toPandas()[KVReservoir.SLOT])
        assert slots == sorted(R.live_slots.tolist())
        rows = R.to_pandas()
        assert len(rows) == 6 and (rows["t"] == 7).all()
        assert {"t": 7, "i": row["i"]} in rows.to_dict("records")

    @pytest.mark.parametrize("retrieval", ["cj", "rj"])
    def test_coalescing_write_checkpoints_once(self, spark, retrieval):
        """A write that would leave the store more than ``2·P`` partitions
        is coalesced to ``P`` before its one checkpoint, so it runs as many
        Spark jobs as a write that is not."""
        R = KVReservoir(spark, retrieval=retrieval, seed=0, target_partitions=2)
        batch = make_batch(spark, 7, 12).localCheckpoint(eager=True)
        R.insert_all(batch, partition_sizes(batch))
        rows = [R.extract_one(), R.extract_one()]
        parts, jobs = [], []
        for k, row in enumerate(rows):
            _, n = jobs_in(spark.sparkContext, f"kv-write-{retrieval}-{k}", lambda: R.insert_rows([row]))
            jobs.append(n)
            parts.append(R.df.rdd.getNumPartitions())
        assert parts == [4, 2] and jobs[0] == jobs[1], (parts, jobs)
        assert sorted(R.to_pandas()["i"]) == list(range(12))

    def test_join_plans(self, spark):
        """The simulated costs hold under Spark's default broadcast
        threshold: the repartition join shuffles the batch into a
        sort-merge join, the co-located join broadcasts Q and leaves the
        batch in place, and neither runs a Python worker."""
        batch = make_batch(spark, 7, 12).localCheckpoint(eager=True)
        sizes = partition_sizes(batch)
        key = "spark.sql.autoBroadcastJoinThreshold"
        old = spark.conf.get(key)
        spark.conf.unset(key)
        try:
            plans = {}
            for retrieval in ["rj", "cj"]:
                R = KVReservoir(spark, retrieval=retrieval, seed=0)
                positions = central_positions(np.random.default_rng(0), sizes, 5)
                rows = R._retrieve(batch, positions, np.arange(5))
                assert len(rows.collect()) == 5
                plans[retrieval] = rows._jdf.queryExecution().executedPlan().toString()
        finally:
            spark.conf.set(key, old)
        batch_shuffle = r"Exchange hashpartitioning\(__row[^\n]*\n[^\n]*monotonically_increasing_id\(\)"
        assert "SortMergeJoin" in plans["rj"] and "BroadcastHashJoin" not in plans["rj"]
        assert re.search(batch_shuffle, plans["rj"]), plans["rj"]
        assert "BroadcastHashJoin" in plans["cj"] and "SortMergeJoin" not in plans["cj"]
        assert "Exchange hashpartitioning" not in plans["cj"], plans["cj"]
        for plan in plans.values():
            assert "Python" not in plan and "Pandas" not in plan, plan


class TestTimeBias:
    def test_recent_items_dominate(self, spark):
        """Aggregate age profile of one realized sample follows the decay
        ordering: counts per batch must (weakly) favour recent batches."""
        lam, n, b, T = 0.4, 60, 50, 8
        d = DRTBS(spark, lam, n, seed=6, storage="cp", strategy="dist")
        for t in range(1, T + 1):
            d.advance(make_batch(spark, t, b))
        pdf = d.sample_pandas()
        counts = pdf.groupby("t").size()
        # theory: E[count_t] = b·(C/W)·e^{-λ(T-t)}
        W = sum(b * math.exp(-lam * (T - j)) for j in range(1, T + 1))
        C = min(n, W)
        newest = counts.get(T, 0)
        oldest = counts.get(1, 0) + counts.get(2, 0)
        th_new = b * (C / W)
        assert newest > 0.5 * th_new
        # items from the two oldest batches should be rare
        th_old = b * (C / W) * (math.exp(-lam * (T - 1)) + math.exp(-lam * (T - 2)))
        assert oldest <= max(4 * th_old, 4)

    def test_starvation_shrinks_distributed_sample(self, spark):
        d = DRTBS(spark, 0.7, 10, seed=7, storage="cp", strategy="dist")
        d.advance(make_batch(spark, 0, 30))
        assert len(d.sample_pandas()) == 10
        for t in range(1, 8):
            d.advance(make_batch(spark, t, 0))
        assert d.sample_weight < 2.0
        assert len(d.sample_pandas()) <= 2


class TestCrossVariantAgreement:
    def test_all_variants_same_scalar_state(self, spark):
        lam, n = 0.35, 18
        sched = [25, 5, 0, 40, 0, 0, 9]
        states = []
        for kw in VARIANTS:
            d = DRTBS(spark, lam, n, seed=11, **kw)
            for t, b in enumerate(sched):
                d.advance(make_batch(spark, t, b))
            states.append((round(d.total_weight, 6), round(d.sample_weight, 6),
                           d.reservoir.count))
        assert len(set(states)) == 1, states


@pytest.fixture(scope="module")
def age_runs(spark):
    """Two same-seed runs per variant over batches of mixed sizes, one of
    them empty, that visit all four Alg. 2 branches."""
    from tbsbench.checks import WeightTracker

    lam, n = 0.2, 2000
    sched = [1500, 900, 0, 2600, 400, 1800, 700, 3000, 200, 1000]
    tracker = WeightTracker(lam, n)
    for b in sched:
        tracker.step(b)
    runs = {}
    for kw, name in zip(VARIANTS, IDS):
        samples = []
        for _ in range(2):
            d = DRTBS(spark, lam, n, seed=21, **kw)
            for t, b in enumerate(sched):
                d.advance(make_batch(spark, t, b))
            samples.append(d.sample_pandas(rng=np.random.default_rng(5)))
        runs[name] = samples
    return tracker, runs


class TestSparkRandomness:
    @pytest.mark.parametrize("variant", IDS)
    def test_same_seed_same_sample(self, age_runs, variant):
        first, second = age_runs[1][variant]
        pd.testing.assert_frame_equal(first, second)

    @pytest.mark.parametrize("variant", IDS)
    def test_age_profile_matches_thm42(self, age_runs, variant):
        """Per-batch counts of a realized sample against Thm 4.2,
        ``B_j·(C/W)·e^{-λ(t-j)}``, by the benchmark's chi-square test."""
        from tbsbench.checks import age_profile_test

        tracker, runs = age_runs
        sample = runs[variant][0]
        assert set(tracker.branches) == {"unsaturated", "overshoot", "undershoot", "saturated"}
        assert len(sample) in {math.floor(tracker.C), math.ceil(tracker.C)}
        observed = np.bincount(sample["t"].to_numpy(), minlength=len(tracker.sizes))
        ok, msg = age_profile_test(observed, tracker.expected_ages())
        assert ok, msg
