"""Sec. 6.3 — linear-regression model management.

Saturated case: n=1000 for all schemes, Periodic(10,10).
Unsaturated case: n=1600 — R-TBS stabilizes at b/(1−e^{-λ}) ≈ 1479 <
1600 while SW/Unif fill to 1600 — run on Periodic(10,10) and
Periodic(16,16). Metrics: MSE across evaluated batches and its 10% ES.
"""
from __future__ import annotations

import math

from repro.datagen.batches import constant
from repro.datagen.modes import Periodic
from repro.datagen.regression import RegressionStream
from repro.experiments.harness import build_stream, format_study, paper_schemes, run_study
from repro.ml.linreg import LinearRegression
from repro.ml.metrics import mean_squared_error


def run_regression(
    *,
    n: int,
    pattern=Periodic(10, 10),
    n_runs: int = 30,
    lam: float = 0.07,
    b: int = 100,
    warmup: int = 100,
    n_batches: int = 60,
    skip: int = 20,
    es_z: float = 0.10,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """Returns {scheme_label: (MSE, ES)} averaged over runs."""

    def stream(run):
        return build_stream(
            RegressionStream(seed=[seed, run, n]), pattern, warmup=warmup,
            n_batches=n_batches, batch_size_fn=constant(b), warmup_size=b,
        )

    return run_study(
        paper_schemes({"R-TBS": lam}), stream, lambda run: [seed, run, 29],
        LinearRegression, mean_squared_error,
        n_runs=n_runs, n=n, b=b, min_fit=2, skip=skip, es_z=es_z,
    )


def stable_rtbs_sample_size(*, lam: float = 0.07, b: int = 100) -> float:
    """The steady-state unsaturated R-TBS sample weight b/(1−e^{-λ}) —
    the paper reports 1479 for b=100, λ=0.07."""
    return b / (1.0 - math.exp(-lam))


def format_regression(results: dict[str, tuple[float, float]], title: str) -> str:
    return title + "\n" + format_study(results, "MSE", "10% ES", 2)
