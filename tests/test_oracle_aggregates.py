"""DuckDB-oracle checks for the deterministic aggregates that the
distributed samplers and their checks rely on.

The samplers themselves are randomized (checked statistically
elsewhere); what is deterministic given their state — batch sizing, the
total decayed weight, the per-batch age counts of a realized sample —
is verified against DuckDB here, per the repo's correctness policy.
"""
import numpy as np
import pandas as pd
import pytest

from repro.distributed import DRTBS
from repro.distributed.common import partition_sizes, tag_positions
from repro.oracle import assert_equivalent

SCHEMA = "t long, i long"
LAM, N = 0.3, 40
# (batch size, time gap before it): every Alg. 2 branch, an empty batch,
# dt = 0 and a real-valued gap.
SCHED = [(60, 1.0), (10, 1.0), (0, 1.0), (25, 0.0), (5, 2.5), (90, 1.0), (3, 1.0)]


def make_batch(spark, t, size):
    return spark.createDataFrame(
        pd.DataFrame({"t": [t] * size, "i": list(range(size))}), schema=SCHEMA
    )


@pytest.fixture(scope="module")
def batches(spark):
    """Checkpointed batches as ``DRTBS.advance`` sizes them: local data,
    a repartitioned frame with empty partitions, and an empty frame."""
    frames = [
        make_batch(spark, 0, 37),
        make_batch(spark, 1, 5).repartition(8),
        make_batch(spark, 2, 0),
    ]
    return [df.localCheckpoint(eager=True) for df in frames]


@pytest.fixture(scope="module")
def run(spark):
    """A Dist-CP D-R-TBS over ``SCHED``: W after every round, and one
    realized sample."""
    d = DRTBS(spark, LAM, N, seed=8, storage="cp", strategy="dist")
    weights = []
    for t, (b, dt) in enumerate(SCHED):
        d.advance(make_batch(spark, t, b), dt=dt)
        weights.append(d.total_weight)
    return weights, d.sample_pandas(rng=np.random.default_rng(2))


class TestStreamBucketing:
    """The batch sizes |B_t| feed straight into the W/C recursions, so
    they must be exactly right."""

    def test_total_stream_size(self, batches):
        for df in batches:
            got = pd.DataFrame({"n_items": [sum(partition_sizes(df))]})
            assert_equivalent(got, "SELECT count(*) AS n_items FROM batch", batch=df)

    def test_partition_sizes(self, batches):
        """Per-partition sizes (Spark SQL's ``spark_partition_id``) against
        the partition ids a Python worker reads from its task context."""
        for df in batches:
            sizes = partition_sizes(df)
            got = pd.DataFrame(
                {"pid": np.arange(len(sizes)), "n": sizes}
            ).query("n > 0")
            assert_equivalent(
                got,
                "SELECT __pid AS pid, count(*) AS n FROM tagged GROUP BY 1",
                tagged=tag_positions(df),
            )


class TestSampleAggregates:
    def test_age_counts(self, run):
        """Per-batch counts of a realized sample, as the Thm 4.2 age
        tests take them (``np.bincount`` over the arrival time)."""
        _, sample = run
        counts = np.bincount(sample["t"].to_numpy(), minlength=len(SCHED))
        got = pd.DataFrame({"t": np.arange(len(SCHED)), "cnt": counts}).query("cnt > 0")
        assert_equivalent(
            got, "SELECT t, count(*) AS cnt FROM sample GROUP BY t", sample=sample
        )

    def test_decayed_weight_aggregation(self, run):
        """W_t = Σ_j B_j e^{-λ(τ_t − τ_j)}, τ the arrival times, against
        the sampler's recursion after every round."""
        weights, _ = run
        arrivals = pd.DataFrame(
            {
                "j": np.arange(len(SCHED)),
                "b": [b for b, _ in SCHED],
                "tau": np.cumsum([dt for _, dt in SCHED]),
            }
        )
        got = pd.DataFrame({"t": np.arange(len(SCHED)), "w": weights})
        assert any(w > N for w in weights) and any(w < N for w in weights[1:])
        assert_equivalent(
            got,
            f"""
            SELECT cur.j AS t, sum(prev.b * exp(-{LAM} * (cur.tau - prev.tau))) AS w
            FROM arrivals cur JOIN arrivals prev ON prev.j <= cur.j
            GROUP BY cur.j
            """,
            arrivals=arrivals,
        )
