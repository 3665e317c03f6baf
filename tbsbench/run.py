"""Benchmark of D-R-TBS rounds, serial R-TBS and the kNN prequential study.

    python3 tbsbench/run.py --workload drtbs-bursty --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
``./src`` and nothing is built. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` ops, and the
metrics — the end-to-end ones with ``--trace 0``, the per-layer ones
(per op, from spans recorded around the program's public functions) with
``--trace 1``. The line before it records the run's set-up. Traced runs
write their spans to ``.bench_out/``. See ``tbsbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

BLAS_THREADS = "1"
OUT_DIR = ".bench_out"


def tail(values: list[float]) -> tuple[float, float, int]:
    """The tail op time, its percentile and the samples beyond it.

    The tail is the highest percentile with at least ten samples beyond
    it. A run of 21 ops or fewer cannot put that percentile above its
    median; there the tail is the nearest-rank p90 instead."""
    xs = sorted(values)
    n = len(xs)
    i = n - 11 if n > 21 else math.ceil(0.9 * n) - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(out) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "op_s.p50": (statistics.median(out.op_s), "s"),
        "op_s.tail": (tail(out.op_s)[0], "s"),
        "rows_per_s": (out.rows / sum(out.op_s), "rows/s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }


def per_layer(tracer, out) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per timed op unless named otherwise. Span times
    are scaled like the op or set-up they belong to, so they add up to the
    end-to-end times."""
    from checks import BRANCHES
    from tracing import SETUP
    from workloads import RESERVOIR_OPS

    n = len(out.op_s)
    dur, calls, selft = tracer.totals(dict(enumerate(out.op_scale)))
    setup_dur, _, _ = tracer.totals({SETUP: statistics.median(out.setup_scale)})
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    def sec(name, value):
        m[name] = (value / n, "s")

    def cnt(name, value):
        m[name] = (value / n, "count")

    sec("drtbs.advance_s", dur["drtbs.advance"])
    sec("drtbs.self_s", selft["drtbs.advance"])
    for op in RESERVOIR_OPS:
        sec(f"reservoir.{op}_s", dur[f"reservoir.{op}"])
        cnt(f"reservoir.{op}.calls", calls[f"reservoir.{op}"])
    cnt("reservoir.partitions", c["reservoir.partitions"])
    m["reservoir.partitions.max"] = (c["reservoir.partitions.max"], "count")
    sec("common.partition_sizes_s", dur["common.partition_sizes"])
    cnt("common.partition_sizes.calls", calls["common.partition_sizes"])
    sec("common.decide_s", dur["common.decide"])
    for name in ("jobs", "stages", "tasks", "tasks_failed"):
        cnt(f"spark.{name}", c[f"spark.{name}"])
    sat = c["alg2.saturated"]
    for name in ("jobs", "tasks"):  # per saturated round: the replace_random hot path
        m[f"spark.{name}.saturated"] = (c[f"spark.{name}.saturated"] / sat if sat else 0.0, "count")
    sec("spark.local_checkpoint_s", dur["spark.local_checkpoint"])
    cnt("spark.local_checkpoint.calls", calls["spark.local_checkpoint"])
    sec("spark.count_s", dur["spark.count"])
    sec("core.rtbs.advance_s", dur["core.rtbs.advance"])
    sec("core.downsample_s", dur["core.downsample"])
    cnt("core.downsample.calls", calls["core.downsample"])
    sec("core.sample_s", dur["core.sample"])
    sec("ml.knn.predict_s", dur["ml.knn.predict"])
    sec("ml.knn.fit_s", dur["ml.knn.fit"])
    sec("harness.sample_s", dur["harness.run_prequential>core.sample"])
    sec("harness.advance_s", dur["harness.run_prequential>core.rtbs.advance"])
    sec("harness.self_s", selft["harness.run_prequential"])
    # Set-up layers, per set-up repetition.
    m["datagen.build_stream_s"] = (setup_dur["datagen.build_stream"] / out.setup_reps, "s")
    m["datagen.batch_s"] = (setup_dur["datagen.batch"] / out.setup_reps, "s")
    for branch in BRANCHES:
        m[f"alg2.{branch}"] = (c[f"alg2.{branch}"], "count")  # rounds in the run
    # The traced run's own op time: minus the untraced op_s.p50 of the
    # same workload and seed, it is the tracing overhead.
    m["traced.op_s.p50"] = (statistics.median(out.op_s), "s")
    cnt("trace.spans", sum(calls[k] for k in calls if ">" not in k))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("tbsbench: no src/repro here; run from the root of a source checkout", file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread, so the load is one process' worth.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    work_dir = os.path.join(root, OUT_DIR)
    os.makedirs(work_dir, exist_ok=True)

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"tbsbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, work_dir)

    metrics = per_layer(tracer, out) if tracer else end_to_end(out)
    _, tail_pct, beyond = tail(out.op_s)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(out.op_s),
        "tail": f"p{tail_pct:.1f} of {len(out.op_s)} ops, {beyond} beyond it",
        "nproc": workloads.P,
        "spark_master": workloads.SPARK_MASTER,
        "driver_memory": workloads.DRIVER_MEMORY,
        "blas_threads": BLAS_THREADS,
        "wall_s": {"setup_s": statistics.median(out.setup_wall_s), "op_s.p50": statistics.median(out.op_wall_s)},
        "problems": out.problems[:20],
    }
    with open(os.path.join(work_dir, f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"env": env, "setup_s": out.setup_s, "op_s": out.op_s,
                   "setup_wall_s": out.setup_wall_s, "op_wall_s": out.op_wall_s, "op_cal_s": out.op_cal_s}, f)
    if tracer:
        tracer.dump(os.path.join(work_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"), env)
    print(json.dumps(env))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": len(out.op_s),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
