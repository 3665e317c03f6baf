"""Sec. 6.1 — runtime comparison of distributed TBS implementations.

Reproduces Figure 7 (five implementations) and Figure 9 (scale-up with
batch size) as runtime tables on local Spark. The stream is a sequence
of integer-payload micro-batches (``make_int_batch``: a batch-time
column and a seeded hash key per row) at the requested size; the
reservoir is warmed into the saturated regime first so every measured
round exercises the paper's hot path (delete/insert coordination),
exactly as in the cluster experiments (batch 10M, reservoir 20M,
λ=0.07 there; scaled down here).

Implementation labels follow the paper:
  Cent-KV-RJ, Cent-KV-CJ, Cent-CP, Dist-CP, D-T-TBS.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.distributed import DRTBS, DTTBS

WARM_ROUNDS = 2  # unmeasured saturated rounds before the measured ones
# Measured rounds: whole merge periods of the co-partitioned reservoir,
# which adds a batch's P partitions per saturated round and merges when it
# holds more than 4·P, so once every 4 rounds; a merge's cost is then
# averaged over the rounds it serves.
ROUNDS = 12

# DRTBS keyword arguments per Fig. 7 label; D-T-TBS is its own class.
IMPLS: dict[str, dict[str, str]] = {
    "Cent-KV-RJ": {"storage": "kv", "retrieval": "rj"},
    "Cent-KV-CJ": {"storage": "kv", "retrieval": "cj"},
    "Cent-CP": {"storage": "cp", "strategy": "cent"},
    "Dist-CP": {"storage": "cp", "strategy": "dist"},
}


def make_int_batch(
    spark: SparkSession, t: int, size: int, n_parts: int, seed: int = 0
) -> DataFrame:
    """A checkpointed integer-payload micro-batch of ``size`` rows in
    ``n_parts`` partitions (checkpointing freezes partition layout, as
    required by the positional decision strategies). Built by Spark from
    ``range``, so its rows and partitions depend only on the arguments,
    not on the session's Arrow setting; the key is a 30-bit hash of
    (seed, t, row)."""
    return (
        spark.range(0, size, 1, n_parts)
        .selectExpr(f"CAST({t} AS long) AS t", f"xxhash64({seed}, {t}, id) & {(1 << 30) - 1} AS key")
        .localCheckpoint(eager=True)
    )


def run_impl(
    spark: SparkSession,
    impl: str,
    *,
    batch_size: int,
    n: int,
    lam: float = 0.07,
    rounds: int = ROUNDS,
    seed: int = 0,
) -> dict[str, float]:
    """Time ``rounds`` measured rounds of one implementation; returns
    mean/min per-round seconds. The reservoir is pre-saturated with
    ``ceil(n/batch_size)`` unmeasured batches plus ``WARM_ROUNDS``
    warm-up rounds (the paper discards the first round too). Batches
    have one partition per core."""
    P = spark.sparkContext.defaultParallelism
    if impl == "D-T-TBS":
        sampler = DTTBS(spark, lam, n, batch_size, seed=seed, target_partitions=P)
    else:
        sampler = DRTBS(spark, lam, n, seed=seed, target_partitions=P, **IMPLS[impl])
    t = 0
    fill = -(-n // batch_size)  # ceil: saturate the reservoir
    for _ in range(fill + WARM_ROUNDS):
        sampler.advance(make_int_batch(spark, t, batch_size, P, seed))
        t += 1
    times = []
    for _ in range(rounds):
        batch = make_int_batch(spark, t, batch_size, P, seed)  # not timed
        start = time.perf_counter()
        sampler.advance(batch)
        times.append(time.perf_counter() - start)
        t += 1
    return {
        "mean_s": float(np.mean(times)),
        "min_s": float(np.min(times)),
        "rounds": rounds,
    }


def run_figure7(
    spark: SparkSession,
    *,
    batch_size: int = 50_000,
    n: int = 100_000,
    lam: float = 0.07,
    rounds: int = ROUNDS,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Per-batch runtime of the five implementations (Fig. 7)."""
    out = {}
    for impl in ["Cent-KV-RJ", "Cent-KV-CJ", "Cent-CP", "Dist-CP", "D-T-TBS"]:
        out[impl] = run_impl(
            spark, impl, batch_size=batch_size, n=n, lam=lam, rounds=rounds, seed=seed
        )
    return out


def run_figure9(
    spark: SparkSession,
    *,
    batch_sizes=(10_000, 100_000, 500_000),
    lam: float = 0.07,
    rounds: int = ROUNDS,
    seed: int = 0,
) -> dict[int, dict[str, float]]:
    """Scale-up of the best D-R-TBS (Dist-CP) with batch size (Fig. 9);
    reservoir size = 2× batch size, as in the paper."""
    out = {}
    for bs in batch_sizes:
        out[bs] = run_impl(
            spark, "Dist-CP", batch_size=bs, n=2 * bs, lam=lam, rounds=rounds, seed=seed
        )
    return out


def format_runtime(results: dict[str, dict[str, float]]) -> str:
    base = results.get("Dist-CP", {}).get("mean_s")
    lines = [f"{'implementation':<12}{'mean s/batch':>14}{'vs Dist-CP':>12}"]
    for impl, r in results.items():
        rel = r["mean_s"] / base if base else float("nan")
        lines.append(f"{impl:<12}{r['mean_s']:>14.3f}{rel:>11.2f}x")
    return "\n".join(lines)
