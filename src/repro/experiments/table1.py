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

from repro.datagen.batches import constant
from repro.datagen.gaussian_mixture import GaussianMixtureStream
from repro.datagen.modes import Periodic, SingleEvent
from repro.experiments.harness import build_stream, paper_schemes, run_study
from repro.ml.knn import KNNClassifier
from repro.ml.metrics import misclassification_rate

DEFAULT_PATTERNS = (SingleEvent(), Periodic(10, 10), Periodic(16, 16))
DEFAULT_LAMBDAS = (0.05, 0.07, 0.10)


def knn_stream(seed, run, pattern, size_fn, *, warmup: int, n_batches: int, b: int):
    """One run's Gaussian-mixture stream: ``warmup`` normal batches of
    ``b``, then ``n_batches`` evaluated batches of ``size_fn(t)``."""
    gen = GaussianMixtureStream(seed=[seed, run, zlib.crc32(pattern.name.encode()) % 2**16])
    return build_stream(
        gen, pattern, warmup=warmup, n_batches=n_batches, batch_size_fn=size_fn, warmup_size=b
    )


def run_knn(stream, scheme_seed, *, lambdas: Sequence[float], k: int, **study):
    """Table 1's schemes (R-TBS at each λ, SW, Unif) retrained by kNN on
    ``stream``; ``study`` is ``run_study``'s n_runs, n, b, skip and es_z.
    Returns {scheme_label: (Miss%, ES)}."""
    schemes = paper_schemes({f"R-TBS λ={lam:g}": lam for lam in lambdas})
    return run_study(
        schemes, stream, scheme_seed, lambda: KNNClassifier(k=k), misclassification_rate,
        min_fit=k, **study,
    )


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
) -> dict[tuple[str, str], tuple[float, float]]:
    """Returns {(scheme_label, pattern_name): (Miss%, ES)} averaged over
    runs. Scheme labels: "R-TBS λ=x", "SW", "Unif"."""
    out: dict[tuple[str, str], tuple[float, float]] = {}
    for pattern in patterns:
        horizon = n_batches if not isinstance(pattern, SingleEvent) else max(40, skip * 2)
        res = run_knn(
            lambda run: knn_stream(
                seed, run, pattern, constant(b), warmup=warmup, n_batches=horizon, b=b
            ),
            lambda run: [seed, run, 17],
            lambdas=lambdas, k=k, n_runs=n_runs, n=n, b=b, skip=skip, es_z=es_z,
        )
        out.update(((label, pattern.name), val) for label, val in res.items())
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
