"""Sec. 6.4 — Naive Bayes on the (synthetic) Usenet2 stream.

Protocol from the paper: 1500 messages in 30 batches of 50; maximum
sample size 300 for every scheme; λ=0.3 for R-TBS; no warm-up (the
dataset is too small), metrics over all 30 batches; robustness uses the
20% ES because of the short series.
"""
from __future__ import annotations

from repro.datagen.usenet import UsenetStream
from repro.experiments.harness import format_study, paper_schemes, run_study
from repro.ml.metrics import misclassification_rate
from repro.ml.naive_bayes import MultinomialNB


def run_naive_bayes(
    *,
    n_runs: int = 30,
    lam: float = 0.3,
    n: int = 300,
    batch_size: int = 50,
    es_z: float = 0.20,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """Returns {scheme: (Miss%, 20% ES)} averaged over runs."""

    def stream(run):
        X, y = UsenetStream(seed=[seed, run]).generate()
        bounds = [(s, min(s + batch_size, len(y))) for s in range(0, len(y), batch_size)]
        return X, y, bounds, [True] * len(bounds)

    return run_study(
        paper_schemes({"R-TBS": lam}), stream, lambda run: [seed, run, 7],
        MultinomialNB, misclassification_rate,
        n_runs=n_runs, n=n, b=batch_size, min_fit=4, skip=0, es_z=es_z,
    )


def format_naive_bayes(results: dict[str, tuple[float, float]]) -> str:
    return format_study(results, "Miss%", "20% ES", 1)
