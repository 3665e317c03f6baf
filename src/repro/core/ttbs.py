"""T-TBS — Targeted-Size Time-Biased Sampling (Algorithm 1).

Retains each sample item per step with probability ``p = e^{-λ}`` and
down-samples each arriving batch at rate ``q = n(1 − e^{-λ})/b``, where
``b`` is the *assumed known, constant* mean batch size. The equilibrium
expected sample size is the target ``n`` (Theorem 3.1(ii)):
``E[C_t] = n + p^t (C_0 − n)``. The inclusion law is
``Pr[x∈S_{t'}] = q·e^{-λ(t'-t)}``, so property (1) holds, but the sample
size is only probabilistically controlled and overflows when the batch
size drifts up (Fig. 1).
"""
from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.rng import binomial, make_rng, sample_without_replacement


def rates(lam: float, n: int, b: float) -> tuple[float, float]:
    """Algorithm 1's retention rate ``p = e^{-λ}`` and batch acceptance
    rate ``q = n(1 − p)/b``, for λ ≥ 0 and ``b ≥ n(1 − p)`` (so q ≤ 1)."""
    if lam < 0:
        raise ValueError("decay rate must be >= 0")
    p = math.exp(-lam)
    if b < n * (1.0 - p) - 1e-12:
        raise ValueError(
            f"mean batch size b={b} must be >= n(1-e^-lam)={n * (1 - p):.4g}"
        )
    return p, (n * (1.0 - p) / b if b > 0 else 0.0)


class TTBS:
    """Targeted-size time-biased sampler."""

    def __init__(
        self,
        lam: float,
        n: int,
        b: float,
        seed: int | np.random.Generator | None = 0,
    ):
        self.p, self.q = rates(lam, n, b)
        self.lam = float(lam)
        self.n = int(n)
        self.b = float(b)
        self.rng = make_rng(seed)
        self.items: list[Any] = []

    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        """One round: thin the sample at rate ``p^dt``, admit a
        Binomial(|B_t|, q) subsample of the batch."""
        batch = list(batch)
        p_eff = math.exp(-self.lam * dt)
        m = binomial(self.rng, len(self.items), p_eff)
        self.items = sample_without_replacement(self.rng, self.items, m)
        k = binomial(self.rng, len(batch), self.q)
        self.items.extend(sample_without_replacement(self.rng, batch, k))

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        return list(self.items)
