"""Table 1 — accuracy and robustness of kNN across temporal patterns.

Reproduces the paper's Sec. 6.2 protocol: 100-class Gaussian-mixture
stream, deterministic batches of b=100, k=7, sample budget 1000 for
every scheme (R-TBS reservoir, SW last-1000 window, Unif reservoir),
warm-up of 100 normal batches, metrics computed from t > 20, averaged
over ``n_runs`` independent runs. R-TBS is swept over λ values.
"""
from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.datagen.batches import constant
from repro.datagen.gaussian_mixture import GaussianMixtureStream
from repro.datagen.modes import Periodic, SingleEvent
from repro.experiments.harness import (
    build_stream,
    make_scheme,
    run_prequential,
    summarize,
)
from repro.ml.knn import KNNClassifier
from repro.ml.metrics import misclassification_rate

DEFAULT_PATTERNS = (SingleEvent(), Periodic(10, 10), Periodic(16, 16))
DEFAULT_LAMBDAS = (0.05, 0.07, 0.10)


def run_table1(
    *,
    n_runs: int = 30,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    patterns=DEFAULT_PATTERNS,
    n: int = 1000,
    b: int = 100,
    k: int = 7,
    warmup: int = 100,
    n_batches: int = 60,
    skip: int = 20,
    es_z: float = 0.10,
    seed: int = 0,
    batch_size_fn=None,
) -> dict[tuple[str, str], tuple[float, float]]:
    """Returns {(scheme_label, pattern_name): (Miss%, ES)} averaged over
    runs. Scheme labels: "R-TBS λ=x", "SW", "Unif"."""
    schemes = [(f"R-TBS λ={lam:g}", "rtbs", lam) for lam in lambdas]
    schemes += [("SW", "sw", lambdas[0]), ("Unif", "unif", lambdas[0])]
    out: dict[tuple[str, str], tuple[float, float]] = {}
    for pattern in patterns:
        horizon = n_batches if not isinstance(pattern, SingleEvent) else max(40, skip * 2)
        for label, name, lam in schemes:
            accs, ess = [], []
            for run in range(n_runs):
                gen = GaussianMixtureStream(
                    seed=[seed, run, zlib.crc32(pattern.name.encode()) % 2**16]
                )
                X, y, bounds, eval_mask = build_stream(
                    gen,
                    pattern,
                    warmup=warmup,
                    n_batches=horizon,
                    batch_size_fn=batch_size_fn or constant(b),
                    warmup_size=b,
                )
                scheme = make_scheme(
                    name, lam=lam, n=n, b=b, seed=[seed, run, 17]
                )
                per_batch = run_prequential(
                    scheme,
                    lambda: KNNClassifier(k=k),
                    X,
                    y,
                    bounds,
                    eval_mask,
                    misclassification_rate,
                    min_fit=k,
                )
                acc, es = summarize(per_batch, skip=skip, es_z=es_z)
                accs.append(acc)
                ess.append(es)
            out[(label, pattern.name)] = (float(np.mean(accs)), float(np.mean(ess)))
    return out


def format_table(results: dict[tuple[str, str], tuple[float, float]]) -> str:
    """Render results in the layout of the paper's Table 1."""
    labels = sorted({lab for lab, _ in results}, key=_label_order)
    patterns = sorted({p for _, p in results})
    lines = []
    header = f"{'scheme':<14}" + "".join(
        f"{p + ' Miss%':>18}{p + ' ES':>14}" for p in patterns
    )
    lines.append(header)
    for lab in labels:
        row = f"{lab:<14}"
        for p in patterns:
            miss, es = results[(lab, p)]
            row += f"{miss:>18.1f}{es:>14.1f}"
        lines.append(row)
    return "\n".join(lines)


def _label_order(label: str) -> tuple[int, str]:
    if label.startswith("R-TBS"):
        return (0, label)
    if label == "SW":
        return (1, label)
    return (2, label)
