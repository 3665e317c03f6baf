"""The benchmark's workloads.

Each workload sets up (timed as ``setup_s``), then runs a fixed number of
ops in a closed loop: an op starts only when the previous one returned,
and its input is built before its timer starts. The op count comes from
``--seconds`` and the workload's nominal op time on the reference machine
(a 4-core VM), so a run measures about that long there; it is fixed, not
time-bounded, so that which sample the tail percentile lands on does not
depend on how fast the machine ran that minute.

After each op the benchmark checks the sampler against its own W/C
tracker; a failed check counts the op as failed. Checks at the end of a
run are not timed.
"""
from __future__ import annotations

import contextlib
import math
import os
import resource
import shlex
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from checks import BRANCHES, WeightTracker, age_profile_test, reference_knn
from tracing import SETUP, Tracer, spark_counts

LAM = 0.07
P = len(os.sched_getaffinity(0))  # nproc: Spark runs local[P] with P batch partitions
SPARK_MASTER = f"local[{P}]"
DRIVER_MEMORY = "2g"
BATCH_SCHEMA = "t long, key long"
RESERVOIR_OPS = ("replace_random", "insert_all", "keep_random", "extract_one", "insert_rows", "clear")

# The bursty cycle: sizes average B = 20 000, n = floor(B / (1 - e^-lam)).
# Started from its fixed point (W after a cycle equals W before it), the
# rounds take the Alg. 2 branches saturated, undershoot, unsaturated,
# overshoot in turn, each at least 3 % of n away from a branch edge.
# The sizes also put frac(C) near 0.99 at the two decay downsamples, so
# Alg. 3 moves the partial item back into the reservoir (insert_rows) in
# almost every cycle and the reservoir coalesces in the overshoot round
# of every cycle. With frac(C) anywhere else, whether a cycle coalesces
# there or in the next saturated round is a coin toss, and an overshoot
# round costs 6.5 s or 9.8 s at random.
BURSTY_CYCLE = (13_530, 0, 9_600, 56_870)
BURSTY_N = math.floor(20_000 / (1 - math.exp(-LAM)))


def _fixed_point(cycle) -> float:
    d, k = math.exp(-LAM), len(cycle)
    return sum(b * d ** (k - 1 - i) for i, b in enumerate(cycle)) / (1 - d**k)


def bursty_sizes(rounds: int) -> list[int]:
    """Batch sizes by batch index: the fill, then ``rounds`` cycle rounds.
    The fill starts W at the cycle's fixed point."""
    return [round(_fixed_point(BURSTY_CYCLE))] + [BURSTY_CYCLE[i % len(BURSTY_CYCLE)] for i in range(rounds)]


# kNN study: Table 1's protocol for R-TBS under pattern P(10,10).
KNN = dict(n=1000, b=100, k=7, warmup=100, n_batches=60)

# Serial set-up repetitions, about 1 s in all; setup_s is their median.
RTBS_SETUP_REPS = 11
KNN_SETUP_REPS = 101
SPARK_FILL_REPS = 3  # fills after the one session start; setup_s adds their median

# Nominal op times on the reference machine, which size a run.
DRTBS_ROUND_S = 3.0
RTBS_ROUND_S = 0.15
KNN_RUN_S = 0.35


# On the reference machine, a shared 4-core VM, host load swings the speed
# by up to 1.5x within a second, and a run's mean speed by 10-20 % between
# runs, in every process alike. Times are therefore reported in reference
# seconds: wall time scaled by CAL_REF_S over the time a fixed Python loop
# takes just before and just after the timed block. A serial op or set-up
# (under 0.5 s) is scaled by its own brackets, one loop each side. A Spark
# round (1-7 s) spans many speed swings, which its own brackets sample
# badly, so Spark times are all scaled by the mean over the run of
# SPARK_CAL_REPS loops each side of every round and fill ("pooled"). Each
# choice about halved the spread of op_s.p50 and rows_per_s across runs;
# the other choice did not, on the other kind of workload.
CAL_LOOPS = 100_000
CAL_REF_S = 0.007  # the loop's time on the reference machine when unloaded
SPARK_CAL_REPS = 15


def calibration_s(reps: int = 1) -> float:
    """The mean time of ``reps`` runs of the loop."""
    ts = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i
        ts.append(time.perf_counter() - start)
    return statistics.fmean(ts)


class Timer:
    """Times a block: ``wall`` seconds and, if ``bracket``, the mean of the
    loop's time just before and just after it (``cal``; None otherwise),
    each the mean of ``reps`` runs."""

    def __init__(self, bracket: bool = True, reps: int = 1):
        self.bracket = bracket
        self.reps = reps
        self.cal = None

    def __enter__(self):
        if self.bracket:
            self.cal = calibration_s(self.reps)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        if self.bracket:
            self.cal = (self.cal + calibration_s(self.reps)) / 2


@dataclass
class Outcome:
    setup_wall_s: list[float] = field(default_factory=list)  # one per set-up repetition
    setup_cal_s: list = field(default_factory=list)
    op_wall_s: list[float] = field(default_factory=list)
    op_cal_s: list = field(default_factory=list)
    rows: int = 0  # batch rows handed to the sampler in timed ops
    failed: int = 0  # ops whose checks failed
    problems: list[str] = field(default_factory=list)
    setup_reps: int = 1
    peak_rss_mb: float = 0.0  # after the last op, before the end-of-run checks
    pooled: bool = False  # scale every time by the run's mean loop time

    def _scales(self, cals: list[float]) -> list[float]:
        """Reference seconds per wall second, one per timed block."""
        if self.pooled:
            cals = [statistics.fmean(self.setup_cal_s + self.op_cal_s)] * len(cals)
        return [CAL_REF_S / c for c in cals]

    @property
    def setup_scale(self) -> list[float]:
        return self._scales(self.setup_cal_s)

    @property
    def op_scale(self) -> list[float]:
        return self._scales(self.op_cal_s)

    @property
    def setup_s(self) -> list[float]:
        return [w * f for w, f in zip(self.setup_wall_s, self.setup_scale)]

    @property
    def op_s(self) -> list[float]:
        return [w * f for w, f in zip(self.op_wall_s, self.op_scale)]

    def mark_peak_rss(self) -> None:
        """Peak RSS of this Python process so far (not the JVM's)."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def add_op(self, timer: Timer) -> None:
        self.op_wall_s.append(timer.wall)
        self.op_cal_s.append(timer.cal)

    def add_setup(self, *timers: Timer) -> None:
        self.setup_wall_s.append(sum(t.wall for t in timers))
        self.setup_cal_s.append(timers[-1].cal)


def op_count(seconds: float, nominal_op_s: float) -> int:
    """Ops in a run: enough for ``seconds`` at the nominal op time."""
    return math.ceil(seconds / nominal_op_s)


def _check(out: Outcome, what: str, errs: list[str]) -> bool:
    if errs:
        out.problems.extend(f"{what}: {e}" for e in errs)
    return not errs


def _op_span(tracer: Tracer | None, op: int):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.op = op
    return tracer.span("op")


def _cycle_problems(branches: list[str]) -> list[str]:
    """Rounds that left the saturated, undershoot, unsaturated, overshoot
    order."""
    return [
        f"round {i} took branch {b}, expected {BRANCHES[i % len(BRANCHES)]}"
        for i, b in enumerate(branches)
        if b != BRANCHES[i % len(BRANCHES)]
    ]


# ----------------------------------------------------------------------
# Spark
# ----------------------------------------------------------------------
def start_spark(work_dir: str):
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SPARK_MASTER} --driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            f"--conf spark.local.dir={shlex.quote(tmp)}",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    # Session settings of the repository's Spark jobs (jobs/_session.py).
    spark = (
        SparkSession.builder.appName("tbsbench")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until it has exited (its
    Python workers exit with it)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


def make_batch(spark, t: int, size: int, seed: int):
    """A checkpointed batch of ``size`` rows with P partitions and the
    schema ``BATCH_SCHEMA``, which is explicit because Spark cannot infer
    one from 0 rows."""
    import pandas as pd

    if size == 0:  # P empty partitions, without the shuffle of a repartition
        return spark.range(0, 0, 1, P).selectExpr(f"CAST({t} AS long) AS t", "id AS key").localCheckpoint(eager=True)
    rng = np.random.default_rng([seed, t])
    pdf = pd.DataFrame(
        {
            "t": np.full(size, t, dtype=np.int64),
            "key": rng.integers(0, 1 << 30, size=size, dtype=np.int64),
        }
    )
    df = spark.createDataFrame(pdf, schema=BATCH_SCHEMA)
    if df.rdd.getNumPartitions() != P:
        df = df.repartition(P)
    return df.localCheckpoint(eager=True)


def trace_spark_layers(tracer: Tracer, spark) -> None:
    from repro.distributed import reservoir
    from repro.distributed.drtbs import DRTBS

    tracer.wrap(DRTBS, "advance", "drtbs.advance")
    for op in RESERVOIR_OPS:
        tracer.wrap(reservoir.CoPartitionedReservoir, op, f"reservoir.{op}")
    tracer.wrap(reservoir, "partition_sizes", "common.partition_sizes")
    tracer.wrap(reservoir, "central_positions", "common.decide")
    tracer.wrap(reservoir, "distributed_counts", "common.decide")
    frame = type(spark.range(0))
    tracer.wrap(frame, "localCheckpoint", "spark.local_checkpoint")
    tracer.wrap(frame, "count", "spark.count")


def _drtbs_state(sampler) -> tuple:
    return sampler.total_weight, sampler.sample_weight, sampler.reservoir.count, sampler.partial is not None


def drtbs_bursty(seed: int, seconds: float, tracer: Tracer | None, work_dir: str) -> Outcome:
    """Dist-CP D-R-TBS fed the bursty cycle; one op is one ``advance``."""
    out = Outcome(setup_reps=SPARK_FILL_REPS, pooled=True)
    # Whole cycles, at least three, then a saturated and an undershoot
    # round: 14 rounds at --seconds 10. Round costs cluster by branch
    # (about 1.2, 2.2, 2.6 and 5.2 reference seconds; the undershoot and
    # unsaturated clusters overlap). With whole cycles only, the median
    # would fall on the edge between the undershoot and unsaturated
    # rounds; with 14 it is the middle of those 7 rounds, and the
    # nearest-rank p90 the middle one of the 3 overshoot rounds.
    cycle = len(BURSTY_CYCLE)
    n_ops = cycle * max(3, math.ceil(seconds / (cycle * DRTBS_ROUND_S))) + 2
    sizes = bursty_sizes(n_ops)
    with Timer(bracket=False) as session:
        spark = start_spark(work_dir)
    try:
        from repro.distributed import DRTBS

        if tracer is not None:
            trace_spark_layers(tracer, spark)
        sc = spark.sparkContext
        for _ in range(SPARK_FILL_REPS):
            with Timer(reps=SPARK_CAL_REPS) as fill:
                sampler = DRTBS(spark, LAM, BURSTY_N, storage="cp", strategy="dist", seed=seed, target_partitions=P)
                sampler.advance(make_batch(spark, 0, sizes[0], seed))
            out.add_setup(session, fill)
        tracker = WeightTracker(LAM, BURSTY_N)
        tracker.step(sizes[0])
        _check(out, "fill", tracker.check(*_drtbs_state(sampler)))
        for i in range(n_ops):
            t = 1 + i
            batch = make_batch(spark, t, sizes[t], seed)
            if tracer is not None:
                sc.setJobGroup(f"op{i}", "tbsbench op")
            with Timer(reps=SPARK_CAL_REPS) as timer, _op_span(tracer, i):
                sampler.advance(batch)
            out.add_op(timer)
            out.rows += sizes[t]
            branch = tracker.step(sizes[t])
            if tracer is not None:
                tracer.op = None
                tracer.count(f"alg2.{branch}")
                for name, v in spark_counts(sc, f"op{i}").items():
                    tracer.count(f"spark.{name}", v)
                    tracer.count(f"spark.{name}.{branch}", v)
                parts = sampler.reservoir.df.rdd.getNumPartitions()
                tracer.count("reservoir.partitions", parts)
                tracer.counters["reservoir.partitions.max"] = max(tracer.counters["reservoir.partitions.max"], parts)
            if not _check(out, f"op {i}", tracker.check(*_drtbs_state(sampler))):
                out.failed += 1
        out.mark_peak_rss()

        # Untimed end-of-run checks against Spark itself.
        counted = sampler.reservoir.df.count()
        expected = math.floor(tracker.C + 1e-9)
        _check(out, "reservoir count()", [] if counted == expected else [f"{counted} rows, expected {expected}"])
        sample = sampler.sample_pandas(rng=np.random.default_rng([seed, 7]))
        observed = np.bincount(sample["t"].to_numpy(), minlength=len(sizes))
        ok, msg = age_profile_test(observed, tracker.expected_ages())
        _check(out, "Thm 4.2 age profile", [] if ok else [msg])
        _check(out, "Alg. 2 cycle", _cycle_problems(tracker.branches[1:]))
    finally:
        if tracer is not None:
            tracer.op = None
        stop_spark(spark)
    return out


# ----------------------------------------------------------------------
# Serial R-TBS
# ----------------------------------------------------------------------
def trace_core_layers(tracer: Tracer) -> None:
    from repro.core import rtbs

    tracer.wrap(rtbs.RTBS, "advance", "core.rtbs.advance")
    tracer.wrap(rtbs.RTBS, "sample", "core.sample")
    tracer.wrap(rtbs, "downsample", "core.downsample")


def _rtbs_check(tracker: WeightTracker, sampler) -> list[str]:
    L = sampler.latent
    return tracker.check(sampler.total_weight, sampler.sample_weight, len(L.full), L.partial is not None)


def rtbs_bursty(seed: int, seconds: float, tracer: Tracer | None, work_dir: str) -> Outcome:
    """Serial ``core.RTBS`` fed the same rounds as ``drtbs-bursty``; one op
    is one ``advance`` followed by ``sample()``. Items are row ids."""
    from repro.core import RTBS

    out = Outcome(setup_reps=RTBS_SETUP_REPS)
    n_ops = op_count(seconds, RTBS_ROUND_S)
    if tracer is not None:
        trace_core_layers(tracer)
    for _ in range(RTBS_SETUP_REPS):
        with Timer() as timer:
            sizes = bursty_sizes(n_ops)
            starts = np.concatenate([[0], np.cumsum(sizes)])
            sampler = RTBS(LAM, BURSTY_N, seed=seed)
            sampler.advance(range(0, sizes[0]))
        out.add_setup(timer)
    tracker = WeightTracker(LAM, BURSTY_N)
    tracker.step(sizes[0])
    _check(out, "fill", _rtbs_check(tracker, sampler))
    for i in range(n_ops):
        t = 1 + i
        batch = range(starts[t], starts[t + 1])
        with Timer() as timer, _op_span(tracer, i):
            sampler.advance(batch)
            sample = sampler.sample()
        out.add_op(timer)
        out.rows += sizes[t]
        branch = tracker.step(sizes[t])
        if tracer is not None:
            tracer.op = None
            tracer.count(f"alg2.{branch}")
        errs = _rtbs_check(tracker, sampler)
        if len(sample) - math.floor(tracker.C + 1e-9) not in (0, 1):
            errs.append(f"|S|={len(sample)} for C={tracker.C!r}")
        if not _check(out, f"op {i}", errs):
            out.failed += 1
    out.mark_peak_rss()

    ids = np.fromiter(sampler.sample(rng=np.random.default_rng([seed, 7])), dtype=np.int64)
    batch_of = np.searchsorted(starts, ids, side="right") - 1
    ok, msg = age_profile_test(np.bincount(batch_of, minlength=len(sizes)), tracker.expected_ages())
    _check(out, "Thm 4.2 age profile", [] if ok else [msg])
    _check(out, "Alg. 2 cycle", _cycle_problems(tracker.branches[1:]))
    return out


# ----------------------------------------------------------------------
# kNN prequential study
# ----------------------------------------------------------------------
class _Recorded:
    """Delegates to ``KNNClassifier``; keeps the training sample and the
    predicted labels of the one batch the op re-checks."""

    def __init__(self, k: int):
        from repro.ml.knn import KNNClassifier

        self.model = KNNClassifier(k=k)

    def fit(self, X, y):
        self.X, self.y = X, y
        self.model.fit(X, y)
        return self

    def predict(self, X):
        self.pred = self.model.predict(X)
        return self.pred


def knn_prequential(seed: int, seconds: float, tracer: Tracer | None, work_dir: str) -> Outcome:
    """Table 1's protocol for R-TBS with kNN; one op is one full
    ``run_prequential`` over a stream generated during set-up."""
    from repro.datagen.batches import constant
    from repro.datagen.gaussian_mixture import GaussianMixtureStream
    from repro.datagen.modes import Periodic
    from repro.experiments import harness
    from repro.ml.knn import KNNClassifier
    from repro.ml.metrics import misclassification_rate

    out = Outcome(setup_reps=KNN_SETUP_REPS)
    n_ops = op_count(seconds, KNN_RUN_S)
    k = KNN["k"]
    if tracer is not None:
        trace_core_layers(tracer)
        tracer.wrap(KNNClassifier, "fit", "ml.knn.fit")
        tracer.wrap(KNNClassifier, "predict", "ml.knn.predict")
        tracer.wrap(harness, "run_prequential", "harness.run_prequential")
        tracer.wrap(harness, "build_stream", "datagen.build_stream")
        tracer.wrap(GaussianMixtureStream, "batch", "datagen.batch")
        tracer.op = SETUP
    for _ in range(KNN_SETUP_REPS):
        with Timer() as timer:
            # Seeded from the workload seed only: run_table1 seeds from
            # hash(pattern.name), which differs between processes.
            gen = GaussianMixtureStream(seed=[seed, 1])
            X, y, bounds, eval_mask = harness.build_stream(
                gen, Periodic(10, 10), warmup=KNN["warmup"], n_batches=KNN["n_batches"],
                batch_size_fn=constant(KNN["b"]), warmup_size=KNN["b"],
            )
        out.add_setup(timer)
    if tracer is not None:
        tracer.op = None
    evaluated = [i for i, ev in enumerate(eval_mask) if ev]
    sizes = [e - s for s, e in bounds]
    for i in range(n_ops):
        check_at = i % len(evaluated)  # the evaluated batch this op re-checks
        made: list = []

        def model_factory():
            model = _Recorded(k) if len(made) == check_at else KNNClassifier(k=k)
            made.append(model)
            return model

        scheme = harness.make_scheme("rtbs", lam=LAM, n=KNN["n"], b=KNN["b"], seed=[seed, 17])
        with Timer() as timer, _op_span(tracer, i):
            per_batch = harness.run_prequential(
                scheme, model_factory, X, y, bounds, eval_mask, misclassification_rate, min_fit=k
            )
        out.add_op(timer)
        out.rows += sum(sizes)
        if tracer is not None:
            tracer.op = None
        tracker = WeightTracker(LAM, KNN["n"])
        for b in sizes:
            branch = tracker.step(b)
            if tracer is not None:
                tracer.count(f"alg2.{branch}")
        errs = _rtbs_check(tracker, scheme)
        if len(per_batch) != len(evaluated) or any(math.isnan(v) for v in per_batch):
            errs.append("a batch went unevaluated")
        if len(made) != len(evaluated):
            errs.append(f"{len(made)} models fitted for {len(evaluated)} evaluated batches")
        else:
            rec = made[check_at]
            s, e = bounds[evaluated[check_at]]
            if not np.array_equal(reference_knn(rec.X, rec.y, X[s:e], k), rec.pred):
                errs.append(f"kNN labels of batch {evaluated[check_at]} differ from the reference")
        if not _check(out, f"op {i}", errs):
            out.failed += 1
    out.mark_peak_rss()
    return out


WORKLOADS = {
    "drtbs-bursty": drtbs_bursty,
    "rtbs-bursty": rtbs_bursty,
    "knn-prequential": knn_prequential,
}
