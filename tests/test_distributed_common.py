"""Tests for the partition-level primitives (repro.distributed.common)."""
import numpy as np
import pandas as pd
import pytest

from repro.distributed.common import (
    central_positions,
    distributed_counts,
    partition_sizes,
    position_spec,
    select,
    slots_to_positions,
)
from repro.rng import make_rng

EMPTY = np.empty(0, dtype=np.int64)


@pytest.fixture(scope="module")
def df40(spark):
    pdf = pd.DataFrame({"k": np.arange(40, dtype=np.int64), "v": np.arange(40) * 0.5})
    return spark.createDataFrame(pdf).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def batch30(spark):
    pdf = pd.DataFrame({"k": np.arange(100, 130, dtype=np.int64), "v": np.arange(30) * 0.5})
    return spark.createDataFrame(pdf).repartition(3).localCheckpoint(eager=True)


def spec_for(payloads, n_parts, mode, empty=EMPTY):
    """A spec applying ``mode`` to every partition, ``empty`` where
    ``payloads`` has no entry."""
    return {pid: (mode, payloads.get(pid, empty)) for pid in range(n_parts)}


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
        sizes = partition_sizes(df40)
        rng = make_rng(3)
        pos = central_positions(rng, sizes, 10)
        spec = spec_for(pos, len(sizes), "keep")
        kept = select(df40, spec, seed=0, round_no=1).toPandas()
        assert len(kept) == 10
        assert set(kept["k"]) <= set(range(40))
        glom = df40.rdd.glom().collect()
        expect = {glom[pid][o]["k"] for pid, offs in pos.items() for o in offs}
        assert set(kept["k"]) == expect

    def test_keep_drop_partition_universe(self, spark, df40):
        sizes = partition_sizes(df40)
        pos = central_positions(make_rng(4), sizes, 15)
        kept = select(df40, spec_for(pos, len(sizes), "keep"), seed=0, round_no=1).toPandas()
        dropped = select(df40, spec_for(pos, len(sizes), "drop"), seed=0, round_no=1).toPandas()
        assert len(kept) == 15 and len(dropped) == 25
        assert sorted(kept["k"]) + sorted(dropped["k"]) != []
        assert sorted(list(kept["k"]) + list(dropped["k"])) == list(range(40))

    def test_empty_positions_drop_is_identity(self, df40):
        n = len(partition_sizes(df40))
        out = select(df40, spec_for({}, n, "drop"), seed=0, round_no=1).toPandas()
        assert sorted(out["k"]) == list(range(40))
        assert sorted(select(df40, {}, seed=0, round_no=1).toPandas()["k"]) == list(range(40))

    def test_empty_positions_keep_is_empty(self, df40):
        n = len(partition_sizes(df40))
        out = select(df40, spec_for({}, n, "keep"), seed=0, round_no=1).toPandas()
        assert len(out) == 0

    def test_many_positions_broadcast(self, df40, batch30):
        """More positions than the filter inlines are broadcast as one
        bitmap per partition and pick the same rows."""
        union = df40.unionByName(batch30)
        sizes = partition_sizes(union)
        pos = central_positions(make_rng(8), sizes, 66)
        glom = union.rdd.glom().collect()
        picked = {glom[pid][o]["k"] for pid, offs in pos.items() for o in offs}
        kept = select(union, spec_for(pos, len(sizes), "keep"), seed=0, round_no=1)
        dropped = select(union, spec_for(pos, len(sizes), "drop"), seed=0, round_no=1)
        kept, dropped = set(kept.toPandas()["k"]), set(dropped.toPandas()["k"])
        assert kept == picked and len(kept) == 66
        assert dropped == (set(range(40)) | set(range(100, 130))) - picked
        assert len(dropped) == 4

    def test_large_keep_equals_complement_drop(self, df40):
        """A keep of more than half a partition is shipped as a drop of
        its complement, with the same result."""
        sizes = partition_sizes(df40)
        pos = central_positions(make_rng(9), sizes, 30)
        spec = position_spec(pos, sizes, "keep")
        flipped = [pid for pid, (mode, _o) in spec.items() if mode == "drop"]
        assert flipped and all(2 * len(pos.get(pid, ())) > sizes[pid] for pid in flipped)
        assert all(2 * len(offs) <= sizes[pid] for pid, (_m, offs) in spec.items())
        raw = select(df40, spec_for(pos, len(sizes), "keep"), seed=0, round_no=1)
        shipped = select(df40, spec, seed=0, round_no=1)
        assert keys_by_partition(raw) == keys_by_partition(shipped)
        assert sum(map(len, keys_by_partition(shipped))) == 30


class TestSelectRandomPerPartition:
    def test_counts_respected(self, spark, df40):
        sizes = partition_sizes(df40)
        cnt = distributed_counts(make_rng(5), sizes, 12)
        kept = select(df40, spec_for(cnt, len(sizes), "keep", 0), seed=0, round_no=1)
        assert len(kept.toPandas()) == 12
        got = [len(keys) for keys in keys_by_partition(kept)]
        assert got == [cnt.get(pid, 0) for pid in range(len(sizes))]

    def test_complementarity(self, spark, df40):
        sizes = partition_sizes(df40)
        cnt = distributed_counts(make_rng(6), sizes, 18)
        kept = select(
            df40, spec_for(cnt, len(sizes), "keep", 0), seed=0, round_no=2
        ).toPandas()
        dropped = select(
            df40, spec_for(cnt, len(sizes), "drop", 0), seed=0, round_no=2
        ).toPandas()
        # same (seed, round) -> complementary deterministic choice
        assert sorted(list(kept["k"]) + list(dropped["k"])) == list(range(40))

    def test_same_round_same_rows(self, spark, df40):
        sizes = partition_sizes(df40)
        spec = spec_for(distributed_counts(make_rng(6), sizes, 18), len(sizes), "keep", 0)
        k1 = select(df40, spec, seed=3, round_no=5).toPandas()
        k2 = select(df40, spec, seed=3, round_no=5).toPandas()
        assert sorted(k1["k"]) == sorted(k2["k"])

    def test_different_rounds_differ(self, spark, df40):
        sizes = partition_sizes(df40)
        cnt = {pid: min(2, s) for pid, s in enumerate(sizes) if s > 0}
        k1 = select(
            df40, spec_for(cnt, len(sizes), "keep", 0), seed=0, round_no=1
        ).toPandas()
        k2 = select(
            df40, spec_for(cnt, len(sizes), "keep", 0), seed=0, round_no=99
        ).toPandas()
        assert sorted(k1["k"]) != sorted(k2["k"])

    def test_uniform_marginals(self, spark, df40):
        """Every row should survive keep-k with equal frequency."""
        sizes = partition_sizes(df40)
        counts = np.zeros(40)
        reps = 60
        for r in range(reps):
            cnt = distributed_counts(make_rng(100 + r), sizes, 20)
            kept = select(
                df40, spec_for(cnt, len(sizes), "keep", 0), seed=7, round_no=r
            ).toPandas()
            counts[kept["k"].to_numpy()] += 1
        freq = counts / reps
        # each ~Binomial(60, .5): 5 sigma ≈ 0.32
        assert np.all(np.abs(freq - 0.5) < 0.33)


class TestSelectOverUnion:
    @pytest.mark.parametrize(
        "picks",
        [
            {1: ("drop", 2), 5: ("keep", 3)},
            {0: ("drop", np.array([0, 3])), 6: ("keep", np.array([1, 4, 7]))},
        ],
        ids=["counts", "positions"],
    )
    def test_touches_only_addressed_partitions(self, df40, batch30, picks):
        """A select over ``reservoir ∪ batch`` addressed by union partition
        ids (batch partitions follow the reservoir's 4) changes exactly
        those partitions, to the planned sizes: the evaluation-order
        invariant the fused replace relies on."""
        assert len(partition_sizes(df40)) == 4
        union = df40.unionByName(batch30)
        before = keys_by_partition(union)
        after = keys_by_partition(select(union, picks, seed=1, round_no=1))
        expect = [len(keys) for keys in before]
        for pid, (mode, p) in picks.items():
            k = p if isinstance(p, int) else len(p)
            expect[pid] = k if mode == "keep" else expect[pid] - k
        assert [len(keys) for keys in after] == expect
        for pid, (keys_before, keys_after) in enumerate(zip(before, after)):
            if pid in picks:
                assert set(keys_after) < set(keys_before)
            else:
                assert keys_after == keys_before

