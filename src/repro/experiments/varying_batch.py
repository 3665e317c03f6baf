"""Sec. 6.2 "Varying batch size" — kNN under non-constant arrival rates.

Two regimes at λ=0.07, Periodic(10,10):
* batch sizes i.i.d. Uniform(0, 200);
* deterministic growth of 2% per batch after warm-up (φ=1.02).

The paper reports ratios relative to R-TBS: Miss% 1.16×/1.14× for SW
and 1.47×/1.40× for Unif; ES 1.82×/1.98× (SW) and 1.76×/1.78× (Unif).
"""
from __future__ import annotations

from repro.datagen import batches
from repro.datagen.modes import Periodic
from repro.experiments.table1 import knn_stream, run_knn


def run_varying_batch(
    *,
    n_runs: int = 30,
    lam: float = 0.07,
    n: int = 1000,
    b: int = 100,
    n_batches: int = 60,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Returns {"uniform"|"growing": {scheme: (Miss%, ES)}}. Each run
    draws one stream, with its own batch sizes, for all three schemes;
    otherwise Table 1's protocol (k=7, 100 warm-up batches, t > 20)."""
    out = {}
    for regime, size_fn in (
        ("uniform", lambda run: batches.uniform(0, 200, seed=[seed, run, 3])),
        ("growing", lambda run: batches.multiplicative(b, 1.02, t0=1)),
    ):
        # Each run is seeded as Table 1's run 0 under the seed below.
        def run_seed(run):
            return [seed, run, regime == "uniform"]

        out[regime] = run_knn(
            lambda run: knn_stream(
                run_seed(run), 0, Periodic(10, 10), size_fn(run), warmup=100,
                n_batches=n_batches, b=b,
            ),
            lambda run: [run_seed(run), 0, 17],
            lambdas=(lam,), k=7, n_runs=n_runs, n=n, b=b, skip=20, es_z=0.10,
        )
    return out


def ratios_vs_rtbs(results: dict[str, tuple[float, float]]) -> dict[str, tuple[float, float]]:
    """(Miss ratio, ES ratio) of each scheme relative to R-TBS."""
    (rt_label,) = [k for k in results if k.startswith("R-TBS")]
    rm, re_ = results[rt_label]
    return {
        label: (m / rm, e / re_)
        for label, (m, e) in results.items()
        if label != rt_label
    }
