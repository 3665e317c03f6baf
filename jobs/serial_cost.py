#!/usr/bin/env python
"""Per-batch cost of the serial samplers (supporting data for Sec. 6.1's
observation that T-TBS is far cheaper than the reservoir-based schemes,
and that R-TBS stays lightweight next to B-Chao's overweight-item
bookkeeping).

    python jobs/serial_cost.py > results/serial_cost.txt

Each sampler takes 3 unmeasured batches to reach its steady state, then
5 timed ones; building a batch is not timed.
"""
import time

import numpy as np

from repro.core import BRS, RTBS, TTBS, BChao

BATCH = 10_000
N = 20_000
LAM = 0.07
WARM, ROUNDS = 3, 5

SAMPLERS = {
    "R-TBS": lambda: RTBS(LAM, N, seed=0),
    "T-TBS": lambda: TTBS(LAM, N, BATCH, seed=0),
    "B-RS": lambda: BRS(N, seed=0),
    "B-Chao": lambda: BChao(LAM, N, seed=0),
}


def per_batch_seconds(sampler) -> list[float]:
    times = []
    for t in range(WARM + ROUNDS):
        batch = [(t, i) for i in range(BATCH)]
        start = time.perf_counter()
        sampler.advance(batch)
        times.append(time.perf_counter() - start)
    return times[WARM:]


def main() -> None:
    t0 = time.time()
    res = {name: per_batch_seconds(make()) for name, make in SAMPLERS.items()}
    base = np.mean(res["R-TBS"])
    print(f"# Serial samplers' per-batch cost (batch {BATCH:,}, n {N:,}, λ {LAM}, {ROUNDS} rounds)")
    print(f"{'sampler':<10}{'mean ms/batch':>15}{'min ms/batch':>14}{'vs R-TBS':>10}")
    for name, times in res.items():
        print(f"{name:<10}{1e3 * np.mean(times):>15.2f}{1e3 * np.min(times):>14.2f}{np.mean(times) / base:>9.2f}x")
    print(f"# elapsed: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
