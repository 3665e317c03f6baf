"""Tests for D-R-TBS on Spark — all storage/decision variants.

The driver-side weight dynamics (W, C, saturation branching) are shared
with the exhaustively-tested serial R-TBS, so these tests focus on:
(i) the distributed scalar state exactly tracking the serial trajectory
for the same batch-size sequence, (ii) structural invariants of the
distributed reservoir, and (iii) cross-variant agreement.
"""
import math
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.rtbs import RTBS
from repro.distributed import DRTBS
from repro.distributed.reservoir import KVReservoir, central_positions, partition_sizes

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
