#!/usr/bin/env python
"""Reproduce Figure 7 (runtime of distributed TBS implementations).

    python jobs/runtime.py
    BATCH=200000 N=400000 ROUNDS=12 python jobs/runtime.py
"""
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from _session import get_spark  # noqa: E402

from repro.experiments.runtime import ROUNDS, format_runtime, run_figure7  # noqa: E402


def main() -> None:
    spark = get_spark()
    t0 = time.time()
    res = run_figure7(
        spark,
        batch_size=int(os.environ.get("BATCH", "50000")),
        n=int(os.environ.get("N", "100000")),
        rounds=int(os.environ.get("ROUNDS", ROUNDS)),
    )
    print("# Figure 7 — per-batch runtime of distributed TBS implementations")
    print(format_runtime(res))
    print(f"# elapsed: {time.time() - t0:.1f}s")
    spark.stop()


if __name__ == "__main__":
    main()
