"""Tests for the partition-level primitives (repro.distributed.common)."""
import numpy as np
import pandas as pd
import pytest

from repro.distributed.common import (
    central_positions,
    distributed_counts,
    keep_first,
    keep_offsets,
    partition_sizes,
    ranked,
    slots_to_positions,
)
from repro.rng import make_rng
from tests.test_drtbs_spark import jobs_in

EMPTY = np.empty(0, dtype=np.int64)


@pytest.fixture(scope="module")
def df40(spark):
    pdf = pd.DataFrame({"k": np.arange(40, dtype=np.int64), "v": np.arange(40) * 0.5})
    return spark.createDataFrame(pdf).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def batch30(spark):
    pdf = pd.DataFrame({"k": np.arange(100, 130, dtype=np.int64), "v": np.arange(30) * 0.5})
    return spark.createDataFrame(pdf).repartition(3).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def batch400(spark):
    return spark.range(1000, 1400, 1, 4).selectExpr("id AS k", "id * 0.5D AS v").localCheckpoint(eager=True)


def every(payloads, n_parts, empty):
    """``payloads`` for every partition, ``empty`` where it has no entry."""
    return {pid: payloads.get(pid, empty) for pid in range(n_parts)}


def first(counts):
    """Windows of the first ``counts[pid]`` rows of each partition's
    order, as ``keep_first`` takes them."""
    return {pid: (0, k) for pid, k in counts.items()}


def complement(positions, sizes):
    """The offsets of every partition that ``positions`` does not name."""
    return {pid: np.setdiff1d(np.arange(size), positions.get(pid, EMPTY)) for pid, size in enumerate(sizes)}


def keys_by_partition(df):
    return [sorted(r["k"] for r in rows) for rows in df.rdd.glom().collect()]


class TestPartitionSizes:
    def test_matches_glom(self, spark, df40):
        sizes = partition_sizes(df40)
        glom = df40.rdd.glom().map(len).collect()
        assert sizes == glom
        assert sum(sizes) == 40

    def test_stable_across_calls(self, df40):
        assert partition_sizes(df40) == partition_sizes(df40)

    def test_zero_row_batch(self, spark):
        for empty in (
            spark.range(0, 0, 1, 3).localCheckpoint(eager=True),
            spark.createDataFrame(pd.DataFrame({"k": EMPTY}), schema="k long"),
        ):
            sizes = partition_sizes(empty)
            assert sizes == [0] * empty.rdd.getNumPartitions()
            assert sizes == empty.rdd.glom().map(len).collect()

    def test_lazy_union(self, df40, batch30):
        union = df40.unionByName(batch30)
        sizes = partition_sizes(union)
        assert sizes == partition_sizes(df40) + partition_sizes(batch30)
        assert sizes == union.rdd.glom().map(len).collect()


class TestSlotsToPositions:
    def test_boundaries(self):
        sizes = [7, 8, 7, 8]
        pos = slots_to_positions([0, 6, 7, 14, 15, 29], sizes)
        assert list(pos[0]) == [0, 6]
        assert list(pos[1]) == [0, 7]
        assert list(pos[2]) == [0]
        assert list(pos[3]) == [7]

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            slots_to_positions([30], [7, 8, 7, 8])

    def test_all_slots_covered(self):
        sizes = [3, 0, 5, 2]
        pos = slots_to_positions(list(range(10)), sizes)
        assert sorted((p, o) for p, arr in pos.items() for o in arr) == [
            (0, 0), (0, 1), (0, 2),
            (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 0), (3, 1),
        ]


class TestDecisionStrategies:
    def test_central_positions_valid(self):
        rng = make_rng(0)
        sizes = [7, 8, 7, 8]
        for _ in range(50):
            pos = central_positions(rng, sizes, 13)
            total = sum(len(v) for v in pos.values())
            assert total == 13
            for pid, offs in pos.items():
                assert len(set(offs.tolist())) == len(offs)  # distinct
                assert all(0 <= o < sizes[pid] for o in offs)

    def test_central_positions_k_too_big(self):
        with pytest.raises(ValueError):
            central_positions(make_rng(0), [2, 2], 5)

    def test_distributed_counts_valid(self):
        rng = make_rng(1)
        sizes = [7, 8, 7, 8]
        for _ in range(50):
            cnt = distributed_counts(rng, sizes, 13)
            assert sum(cnt.values()) == 13
            assert all(0 < c <= sizes[pid] for pid, c in cnt.items())


class TestSelectByPositions:
    def test_keep_selects_exact_rows(self, spark, df40):
        """The rows at the kept offsets, on both sides of a bitmap word's
        boundary and at a partition's last row too, none of a touched
        partition with an empty keep and every row of an untouched one.
        The bitmaps are constants of the optimized plan, not parsed per
        row."""
        sizes = partition_sizes(df40)
        pos = central_positions(make_rng(3), sizes, 10)
        rows600 = spark.range(0, 600, 1, 3).selectExpr("id AS k").localCheckpoint(eager=True)
        edges = {0: np.array([0, 63, 64, 127, 128, 199]), 1: EMPTY}
        for frame, keep in ((df40, every(pos, len(sizes), EMPTY)), (rows600, edges)):
            out = keep_offsets(frame, keep)
            glom = frame.rdd.glom().collect()
            expect = [r["k"] for pid, rows in enumerate(glom) for o, r in enumerate(rows) if o in keep.get(pid, [o])]
            assert len(expect) == (10 if frame is df40 else 206)
            assert sorted(out.toPandas()["k"]) == sorted(expect)
            assert "from_json" not in out._jdf.queryExecution().optimizedPlan().toString()

    def test_keep_drop_partition_universe(self, spark, df40):
        """Keeping some offsets and keeping the rest split the rows."""
        sizes = partition_sizes(df40)
        pos = central_positions(make_rng(4), sizes, 15)
        kept = keep_offsets(df40, every(pos, len(sizes), EMPTY)).toPandas()
        dropped = keep_offsets(df40, complement(pos, sizes)).toPandas()
        assert len(kept) == 15 and len(dropped) == 25
        assert sorted(kept["k"]) + sorted(dropped["k"]) != []
        assert sorted(list(kept["k"]) + list(dropped["k"])) == list(range(40))

    def test_empty_positions_drop_is_identity(self, df40):
        """Keeping every offset, or naming no partition, keeps every row."""
        sizes = partition_sizes(df40)
        out = keep_offsets(df40, complement({}, sizes)).toPandas()
        assert sorted(out["k"]) == list(range(40))
        assert sorted(keep_offsets(df40, {}).toPandas()["k"]) == list(range(40))

    def test_empty_positions_keep_is_empty(self, df40):
        sizes = partition_sizes(df40)
        out = keep_offsets(df40, every({}, len(sizes), EMPTY)).toPandas()
        assert len(out) == 0

    def test_many_positions_one_pass(self, spark, df40, batch400):
        """Many kept offsets, or most of a partition's rows, ship in the
        filter itself: no join, no exchange, one job."""
        union = df40.unionByName(batch400)
        sizes = partition_sizes(union)
        pos = central_positions(make_rng(8), sizes, 150)
        glom = union.rdd.glom().collect()
        picked = {glom[pid][o]["k"] for pid, offs in pos.items() for o in offs}
        kept = keep_offsets(union, every(pos, len(sizes), EMPTY))
        dropped = keep_offsets(union, complement(pos, sizes))
        for out in (kept, dropped):
            _, jobs = jobs_in(spark.sparkContext, "keep-offsets", lambda: out.write.format("noop").mode("overwrite").save())
            assert jobs == 1
            plan = out._jdf.queryExecution().executedPlan().toString()
            assert "BroadcastHashJoin" not in plan and "Exchange" not in plan, plan
        kept, dropped = set(kept.toPandas()["k"]), set(dropped.toPandas()["k"])
        assert kept == picked and len(kept) == 150
        assert dropped == (set(range(40)) | set(range(1000, 1400))) - picked
        assert len(dropped) == 290


class TestSelectRandomPerPartition:
    def test_counts_respected(self, spark, df40):
        sizes = partition_sizes(df40)
        cnt = distributed_counts(make_rng(5), sizes, 12)
        kept = keep_first(df40, first(every(cnt, len(sizes), 0)), seed=0, round_no=1)
        assert len(kept.toPandas()) == 12
        got = [len(keys) for keys in keys_by_partition(kept)]
        assert got == [cnt.get(pid, 0) for pid in range(len(sizes))]

    def test_skip_keeps_a_window_of_the_order(self, df40):
        """A window ``(first, count)`` keeps the rows at positions ``first
        .. first + count - 1`` of ``ranked``'s order; a partition without a
        window keeps every row."""
        sizes = partition_sizes(df40)
        rows = ranked(df40, seed=0, round_no=8).toPandas()
        order = {pid: list(g.sort_values("__rank")["k"]) for pid, g in rows.groupby(rows["__rank"].to_numpy() >> 33)}
        kept = keys_by_partition(keep_first(df40, {0: (2, 3), 1: (4, 0)}, seed=0, round_no=8))
        assert kept[0] == sorted(order[0][2:5]) and kept[1] == []
        for pid in range(2, len(sizes)):
            assert kept[pid] == sorted(order[pid]), pid

    def test_same_round_same_rows(self, spark, df40):
        sizes = partition_sizes(df40)
        keep = first(every(distributed_counts(make_rng(6), sizes, 18), len(sizes), 0))
        k1 = keep_first(df40, keep, seed=3, round_no=5).toPandas()
        k2 = keep_first(df40, keep, seed=3, round_no=5).toPandas()
        assert sorted(k1["k"]) == sorted(k2["k"])

    def test_different_rounds_differ(self, spark, df40):
        sizes = partition_sizes(df40)
        cnt = {pid: min(2, s) for pid, s in enumerate(sizes) if s > 0}
        k1 = keep_first(df40, first(every(cnt, len(sizes), 0)), seed=0, round_no=1).toPandas()
        k2 = keep_first(df40, first(every(cnt, len(sizes), 0)), seed=0, round_no=99).toPandas()
        assert sorted(k1["k"]) != sorted(k2["k"])

    def test_uniform_marginals(self, spark, df40):
        """Every row should survive keep-k with equal frequency."""
        sizes = partition_sizes(df40)
        counts = np.zeros(40)
        reps = 60
        for r in range(reps):
            cnt = distributed_counts(make_rng(100 + r), sizes, 20)
            kept = keep_first(df40, first(every(cnt, len(sizes), 0)), seed=7, round_no=r).toPandas()
            counts[kept["k"].to_numpy()] += 1
        freq = counts / reps
        # each ~Binomial(60, .5): 5 sigma ≈ 0.32
        assert np.all(np.abs(freq - 0.5) < 0.33)


class TestSelectOverUnion:
    @pytest.mark.parametrize("picks", ["counts", "positions"])
    def test_touches_only_addressed_partitions(self, df40, batch30, picks):
        """A filter over ``reservoir ∪ batch`` addressed by union partition
        ids (batch partitions follow the reservoir's 4) changes exactly
        those partitions, to the planned sizes: the ids are those of the
        frame the filter is projected over."""
        assert len(partition_sizes(df40)) == 4
        union = df40.unionByName(batch30)
        before = keys_by_partition(union)
        sizes = [len(keys) for keys in before]
        if picks == "counts":
            keep = {1: sizes[1] - 2, 5: 3}
            after = keys_by_partition(keep_first(union, first(keep), seed=1, round_no=1))
        else:
            keep = {0: np.setdiff1d(np.arange(sizes[0]), [0, 3]), 6: np.array([1, 4, 7])}
            after = keys_by_partition(keep_offsets(union, keep))
        expect = list(sizes)
        for pid, p in keep.items():
            expect[pid] = p if picks == "counts" else len(p)
        assert [len(keys) for keys in after] == expect
        for pid, (keys_before, keys_after) in enumerate(zip(before, after)):
            if pid in keep:
                assert set(keys_after) < set(keys_before)
            else:
                assert keys_after == keys_before


class TestNoPythonWorker:
    """Every per-round pass runs inside the JVM: the plans Spark executes
    for them hold no ``Python`` or ``Pandas`` node."""

    @staticmethod
    def assert_jvm_only(plan):
        assert "Python" not in plan and "Pandas" not in plan, plan

    def test_partition_sizes(self, df40, batch30, monkeypatch):
        observed = []
        frame = type(df40)  # the session's DataFrame class
        observe = frame.observe

        def recorded(df, *args):
            out = observe(df, *args)
            observed.append(out)
            return out

        # the sizing pass writes an observed frame; its plan is the one run
        monkeypatch.setattr(frame, "observe", recorded)
        partition_sizes(df40.unionByName(batch30))
        monkeypatch.undo()
        plans = [df._jdf.queryExecution().executedPlan().toString() for df in observed]
        assert plans
        for plan in plans:
            self.assert_jvm_only(plan)

    @pytest.mark.parametrize("picks", ["counts", "offsets", "bitmap"])
    def test_select(self, df40, batch30, batch400, picks):
        union = df40.unionByName(batch400 if picks == "bitmap" else batch30)
        sizes = partition_sizes(union)
        if picks == "counts":
            keep = every(distributed_counts(make_rng(10), sizes, 20), len(sizes), 0)
            out = keep_first(union, first(keep), seed=0, round_no=1)
        else:
            k = 10 if picks == "offsets" else 150
            out = keep_offsets(union, every(central_positions(make_rng(10), sizes, k), len(sizes), EMPTY))
        out.collect()
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert "BroadcastHashJoin" not in plan, plan
        self.assert_jvm_only(plan)
