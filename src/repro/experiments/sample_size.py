"""Figure 1 (as tables) — sample-size dynamics of T-TBS vs R-TBS.

Four regimes:
  (a) deterministic growth  — B=100 fixed, then φ=1.002 from t=200
      (λ=0.05): T-TBS overflows, R-TBS stays pinned at n;
  (b) constant batches      — B≡100, λ=0.1: T-TBS fluctuates around n,
      R-TBS constant;
  (c) uniform batches       — B ~ Uniform(0,200), λ=0.1: T-TBS swings,
      R-TBS bounded above by n;
  (d) deterministic decay   — B=100 fixed, then φ=0.8 from t=200
      (λ=0.01): both shrink (underflow is inherent to (1)).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import RTBS, TTBS
from repro.datagen import batches


def _trajectory(
    lam: float,
    n: int,
    b: int,
    size_fn: Callable[[int], int],
    horizon: int,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    t_s = TTBS(lam, n, b, seed=seed)
    r_s = RTBS(lam, n, seed=seed)
    t_sizes, r_sizes, b_sizes = [], [], []
    for t in range(1, horizon + 1):
        size = size_fn(t)
        batch = range(size)  # opaque items; identity irrelevant here
        t_s.advance(list(batch))
        r_s.advance(list(batch))
        t_sizes.append(len(t_s.items))
        r_sizes.append(r_s.sample_weight)
        b_sizes.append(size)
    return {
        "t": np.arange(1, horizon + 1),
        "batch": np.array(b_sizes),
        "ttbs": np.array(t_sizes, dtype=float),
        "rtbs": np.array(r_sizes),
    }


def run_sample_size_dynamics(seed: int = 0) -> dict[str, dict[str, np.ndarray]]:
    return {
        "a_growth": _trajectory(
            0.05, 1000, 100, batches.multiplicative(100, 1.002, t0=200), 700, seed
        ),
        "b_constant": _trajectory(0.1, 1000, 100, batches.constant(100), 400, seed),
        "c_uniform": _trajectory(
            0.1, 1000, 100, batches.uniform(0, 200, seed=[seed, 1]), 400, seed
        ),
        "d_decay": _trajectory(
            0.01, 1000, 100, batches.multiplicative(100, 0.8, t0=200), 700, seed
        ),
    }


TAIL = 100  # rounds in the summary's tail window


def summarize_dynamics(traj: dict[str, np.ndarray]) -> dict[str, float]:
    """Tail-window summary for the tables in EXPERIMENTS.md."""
    return {
        "ttbs_mean": float(np.mean(traj["ttbs"][-TAIL:])),
        "ttbs_max": float(np.max(traj["ttbs"])),
        "ttbs_std": float(np.std(traj["ttbs"][-TAIL:])),
        "rtbs_mean": float(np.mean(traj["rtbs"][-TAIL:])),
        "rtbs_max": float(np.max(traj["rtbs"])),
        "rtbs_std": float(np.std(traj["rtbs"][-TAIL:])),
    }
