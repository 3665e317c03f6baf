"""B-RS — Batched Reservoir Sampling (Algorithm 5, Appendix B).

Classical reservoir sampling adapted to batch arrivals: at each step the
number ``M`` of batch items entering the sample is drawn from the
hypergeometric(C, |B_t|, W) law — exactly the distribution that item-at-
a-time reservoir sampling would induce — then ``M`` uniform batch items
replace uniform victims. At every time t the sample is a *uniform*
sample of everything seen so far (decay rate λ = 0). This is the "Unif"
baseline in the paper's Sec. 6 experiments.
"""
from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.rng import hypergeometric, make_rng, sample_without_replacement


class BRS:
    """Batched classical reservoir sampler (uniform over all history)."""

    def __init__(
        self,
        n: int,
        seed: int | np.random.Generator | None = 0,
    ):
        if n < 1:
            raise ValueError("max sample size must be >= 1")
        self.n = int(n)
        self.rng = make_rng(seed)
        self.items: list[Any] = []
        self.seen = 0  # W: number of items seen so far

    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        batch = list(batch)
        b = len(batch)
        C = min(self.n, self.seen + b)  # new sample size (line 4)
        M = hypergeometric(self.rng, C, b, self.seen)
        kept = sample_without_replacement(
            self.rng, self.items, min(self.n - M, len(self.items))
        )
        self.items = kept + sample_without_replacement(self.rng, batch, M)
        self.seen += b

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        return list(self.items)
