"""R-TBS — Reservoir-based Time-Biased Sampling (Algorithm 2).

Maintains a latent fractional sample ``L_t = (A_t, π_t, C_t)`` with
``C_t = min(n, W_t)`` where ``W_t = Σ_j B_j e^{-λ(t-j)}`` is the total
decayed weight of everything seen so far. Guarantees, at every time t
(Theorem 4.2):

    Pr[i ∈ S_t] = (C_t / W_t) · e^{-λ(t - t_i)}

which yields the relative-inclusion property (1), a hard sample-size cap
``|S_t| ≤ n``, maximal expected sample size when unsaturated (Thm 4.3)
and minimal sample-size variance (Thm 4.4, via stochastic rounding).

Batches may arrive at arbitrary real-valued time gaps: ``advance``
takes ``dt`` and decays by ``e^{-λ·dt}`` (Sec. 2, "our results can be
applied to arbitrary sequences of real-valued batch arrival times").

Algorithm 2 has two cases: saturated before and after the batch, or
not, where C = W until an overshoot downsamples it to n; so
``C_t = min(n, W_t)`` holds bitwise. It acts on the full items only
through the reservoir operations of ``repro.core.latent``. Here they
live in a ``ListReservoir``; ``repro.distributed.DRTBS`` runs the same
code over a Spark reservoir.
"""
from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.downsample import downsample
from repro.core.latent import EPS, LatentSample, ListReservoir
from repro.rng import make_rng, stochastic_round


class RTBS:
    """Reservoir-based time-biased sampler with decay rate ``lam`` and
    maximum sample size ``n``."""

    def __init__(
        self,
        lam: float,
        n: int,
        seed: int | np.random.Generator | None = 0,
    ):
        if lam < 0:
            raise ValueError("decay rate must be >= 0")
        if n < 1:
            raise ValueError("max sample size must be >= 1")
        self.lam = float(lam)
        self.n = int(n)
        self.rng = make_rng(seed)
        self.latent = LatentSample(ListReservoir((), self.rng))
        self.total_weight = 0.0  # W

    # ------------------------------------------------------------------
    @property
    def sample_weight(self) -> float:
        """C_t = min(n, W_t) — the expected realized sample size."""
        return self.latent.weight

    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        """Process one arriving batch after a time gap ``dt`` (Alg. 2)."""
        batch = list(batch)
        self._advance(batch, [len(batch)], dt)

    def _advance(self, batch: Any, sizes: Sequence[int], dt: float) -> None:
        """Algorithm 2 for a batch of ``sum(sizes)`` items, ``sizes`` being
        its per-partition counts, as the reservoir's inserts take them.
        Case 1 (saturated before and after) swaps accepted items for random
        victims. Case 2 decays L, takes the whole batch with ``C = W`` and
        downsamples to n on overshoot."""
        b = sum(sizes)
        L, n = self.latent, self.n
        A = L.full
        decayed = self.total_weight * math.exp(-self.lam * dt)
        W = decayed + b
        saturated = self.total_weight >= n - EPS and W >= n - EPS
        self.total_weight = W

        if saturated:
            # |A| == n, π == ∅: accept E[m] = B_t·n/W items via stochastic
            # rounding; they replace random victims. C is n, or W within
            # EPS below n.
            m = stochastic_round(self.rng, b * n / W) if b else 0
            A.replace_random(min(m, b, n), batch, sizes)
            L.weight = min(W, float(n))
        else:
            # A decayed weight within EPS of C (dt = 0, λ = 0) leaves L as
            # it is. One that vanished next to b (W − b rounds to 0) empties it.
            if decayed > EPS:
                downsample(L, decayed, self.rng)
            else:
                A.clear()
                L.partial = None
            if b > 0:
                A.insert_all(batch, sizes)  # accept all new items (eq. (5): prob 1)
            L.weight = W
            if W > n:  # overshoot; within EPS of n this only sets C = n
                downsample(L, float(n), self.rng)
        L.check_invariants()

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        """Realize S_t from L_t per eq. (2)."""
        return self.latent.realize(rng if rng is not None else self.rng)
