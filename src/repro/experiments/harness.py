"""Prequential (predict-then-update) retraining harness (Sec. 6).

The paper's evaluation protocol: for each incoming batch, first predict
it with a model retrained on the *current* sample, record the metric,
then update the sample with the batch. Samplers store integer indices
into the pre-generated stream arrays, so any sampler from
``repro.core`` plugs in unchanged. ``run_study`` is the one loop over
runs and schemes: every study is a stream function plus one call.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core import BRS, RTBS, TTBS, SlidingWindow


def make_scheme(name: str, *, lam: float, n: int, b: float, seed: int):
    """Instantiate a sampling scheme by its paper name."""
    if name == "rtbs":
        return RTBS(lam, n, seed=seed)
    if name == "sw":
        return SlidingWindow(n)
    if name == "unif":
        return BRS(n, seed=seed)
    if name == "ttbs":
        return TTBS(lam, n, b, seed=seed)
    raise ValueError(f"unknown scheme {name!r}")


def run_prequential(
    scheme,
    model_factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    bounds: Sequence[tuple[int, int]],
    eval_mask: Sequence[bool],
    metric_fn: Callable[[np.ndarray, np.ndarray], float],
    min_fit: int = 2,
) -> list[float]:
    """Stream the batches through ``scheme``; return one metric value per
    evaluated batch (NaN if the sample was too small to fit a model and
    no previous model exists — the paper's "keep the current model"
    policy keeps the last fitted model otherwise)."""
    model = None
    out: list[float] = []
    for (s, e), ev in zip(bounds, eval_mask):
        if ev:
            idx = np.fromiter(scheme.sample(), dtype=np.int64)
            if len(idx) >= min_fit:
                model = model_factory().fit(X[idx], y[idx])
            if model is not None and e > s:
                out.append(metric_fn(y[s:e], model.predict(X[s:e])))
            else:
                out.append(float("nan"))
        scheme.advance(range(s, e))
    return out


def build_stream(
    generator,
    pattern,
    *,
    warmup: int,
    n_batches: int,
    batch_size_fn: Callable[[int], int],
    warmup_size: int,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], list[bool]]:
    """Materialize warm-up + evaluation batches into flat arrays.

    Warm-up batches are all "normal" mode (Sec. 6.2) and not evaluated;
    batch t (1-based) of the evaluation phase uses ``pattern.mode(t)``
    and ``batch_size_fn(t)`` items.
    """
    Xs, ys, bounds, eval_mask = [], [], [], []
    pos = 0
    for _ in range(warmup):
        Xb, yb = generator.batch("normal", warmup_size)
        Xs.append(Xb)
        ys.append(yb)
        bounds.append((pos, pos + len(yb)))
        eval_mask.append(False)
        pos += len(yb)
    for t in range(1, n_batches + 1):
        size = batch_size_fn(t)
        Xb, yb = generator.batch(pattern.mode(t), size)
        Xs.append(Xb)
        ys.append(yb)
        bounds.append((pos, pos + len(yb)))
        eval_mask.append(True)
        pos += len(yb)
    return np.vstack(Xs), np.concatenate(ys), bounds, eval_mask


def summarize(
    per_batch: Sequence[float], *, skip: int, es_z: float
) -> tuple[float, float]:
    """(accuracy, robustness) = (mean metric, z% expected shortfall) over
    the evaluated batches after index ``skip`` (the paper starts at
    t = 20 "since all three sampling schemes perform poorly during the
    first mode change")."""
    from repro.ml.metrics import expected_shortfall

    vals = [v for v in list(per_batch)[skip:] if not math.isnan(v)]
    if not vals:
        raise ValueError("no evaluated batches after skip")
    return float(np.mean(vals)), expected_shortfall(vals, es_z)


def paper_schemes(rtbs: dict[str, float]) -> list[tuple[str, str, float]]:
    """``(label, name, λ)`` for R-TBS at each labelled λ, then the SW and
    Unif baselines (neither uses λ; they get the first one)."""
    lam0 = next(iter(rtbs.values()))
    return [(label, "rtbs", lam) for label, lam in rtbs.items()] + [
        ("SW", "sw", lam0),
        ("Unif", "unif", lam0),
    ]


def run_study(
    schemes: Sequence[tuple[str, str, float]],
    stream: Callable[[int], tuple],
    scheme_seed: Callable[[int], object],
    model_factory: Callable[[], object],
    metric_fn: Callable[[np.ndarray, np.ndarray], float],
    *,
    n_runs: int,
    n: int,
    b: float,
    min_fit: int,
    skip: int,
    es_z: float,
) -> dict[str, tuple[float, float]]:
    """The paper's study protocol: each run builds one stream
    ``stream(run) -> (X, y, bounds, eval_mask)`` and every ``(label,
    name, λ)`` scheme, seeded by ``scheme_seed(run)``, is retrained on
    that same stream. Returns {label: (metric, ES)} averaged over runs."""
    per_run: dict[str, list[tuple[float, float]]] = {label: [] for label, _, _ in schemes}
    for run in range(n_runs):
        X, y, bounds, eval_mask = stream(run)
        for label, name, lam in schemes:
            scheme = make_scheme(name, lam=lam, n=n, b=b, seed=scheme_seed(run))
            per_batch = run_prequential(
                scheme, model_factory, X, y, bounds, eval_mask, metric_fn, min_fit=min_fit
            )
            per_run[label].append(summarize(per_batch, skip=skip, es_z=es_z))
    return {
        label: (float(np.mean([m for m, _ in v])), float(np.mean([e for _, e in v])))
        for label, v in per_run.items()
    }


def format_study(
    results: dict[str, tuple[float, float]], metric: str, es: str, digits: int
) -> str:
    """One row per scheme: label, mean metric and its ES."""
    lines = [f"{'scheme':<8}{metric:>10}{es:>10}"]
    for label, (m, e) in results.items():
        lines.append(f"{label:<8}{m:>10.{digits}f}{e:>10.{digits}f}")
    return "\n".join(lines)
