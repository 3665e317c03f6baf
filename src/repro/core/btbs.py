"""B-TBS — Bernoulli Time-Biased Sampling (Algorithm 4, Appendix A).

Accept every arriving item; at each step retain each sample item
independently with probability ``p = e^{-λ}``. Yields
``Pr[x∈S_{t'}] = e^{-λ(t'-t)}`` (eq. (7)) and hence property (1), but
offers no control over sample size: the equilibrium mean is
``b/(1−e^{-λ})``, entirely determined by λ and the batch sizes
(Remark 1). This is the scheme of Xie et al. [32].
"""
from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.rng import binomial, make_rng, sample_without_replacement


class BTBS:
    """Bernoulli time-biased sampler (no sample-size control)."""

    def __init__(
        self,
        lam: float,
        seed: int | np.random.Generator | None = 0,
    ):
        if lam < 0:
            raise ValueError("decay rate must be >= 0")
        self.lam = float(lam)
        self.rng = make_rng(seed)
        self.items: list[Any] = []

    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        p_eff = math.exp(-self.lam * dt)
        m = binomial(self.rng, len(self.items), p_eff)
        self.items = sample_without_replacement(self.rng, self.items, m)
        self.items.extend(batch)

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        return list(self.items)
