"""B-Chao — batched, time-decayed version of Chao's algorithm
(Appendix D, Algorithms 6 and 7).

Chao's unequal-probability reservoir scheme [9] adapted to exponential
decay and batch arrivals. The sample size is nondecreasing and pinned
at ``n`` once full, which forces two violations of the paper's
relative-inclusion property (1):

* during initial fill-up every item is admitted with probability 1, so
  items of different ages appear with *equal* probability;
* when data arrives slowly relative to λ, new items become *overweight*
  (``n·w/W > 1``): they are carried with inclusion probability 1 in a
  side set ``V`` and are over-represented relative to (1).

R-TBS avoids both problems by letting the sample shrink. This module
exists as the closest-prior-art comparator; tests demonstrate the
violations that Appendix D describes.
"""
from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.rng import make_rng


class BChao:
    """Batched Chao sampler with exponential decay.

    State:
      * ``S``   — non-overweight sample items (individual weights not
                  needed; only their aggregate ``W`` is tracked),
      * ``V``   — overweight items as ``[item, weight]`` pairs, carried
                  with inclusion probability 1,
      * ``W``   — aggregate weight of the non-overweight items.
    """

    def __init__(
        self,
        lam: float,
        n: int,
        seed: int | np.random.Generator | None = 0,
    ):
        if lam < 0:
            raise ValueError("decay rate must be >= 0")
        if n < 1:
            raise ValueError("reservoir size must be >= 1")
        self.lam = float(lam)
        self.n = int(n)
        self.rng = make_rng(seed)
        self.S: list[Any] = []
        self.V: list[list[Any]] = []  # [item, weight] pairs, overweight
        self.W = 0.0

    # ------------------------------------------------------------------
    def _normalize(self, x: Any) -> float:
        """Algorithm 7: fold the new item ``x`` (weight 1) and the
        overweight set into the aggregate weight, re-categorize items as
        overweight / no-longer-overweight, and return π_x.

        Side effects: updates ``self.W``, ``self.V`` and fills
        ``self._A`` with items newly demoted from overweight status
        (with their individual weights — needed for victim selection).
        """
        self._A: list[list[Any]] = []
        n = self.n
        # Candidates for overweight status: x plus the current V items;
        # categorize greedily from the heaviest (Alg. 7's repeat-loop
        # pops the max-weight item via GetMax).
        candidates = [[x, 1.0]] + [list(p) for p in self.V]
        candidates.sort(key=lambda p: p[1], reverse=True)
        D: list[list[Any]] = []  # items that remain overweight
        A: list[list[Any]] = []  # items demoted to non-overweight
        W_rest = self.W + sum(w for _, w in candidates)
        for itm, w in candidates:
            if len(D) < n and (n - len(D)) * w / W_rest > 1.0:
                D.append([itm, w])
                W_rest -= w
            else:
                A.append([itm, w])
        pi_x = 1.0
        x_over = any(itm is x for itm, _ in D)
        if not x_over:
            pi_x = (self.n - len(D)) * 1.0 / W_rest
        # x, if demoted, is not part of A's victim pool (it is the
        # arriving item); remove it from A.
        A = [[itm, w] for itm, w in A if itm is not x]
        self.V = D
        self._A = A
        self.W = W_rest
        return min(1.0, pi_x)

    # ------------------------------------------------------------------
    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        decay = math.exp(-self.lam * dt)
        self.W *= decay
        for pair in self.V:
            pair[1] *= decay
        for x in batch:
            if len(self.S) + len(self.V) < self.n:
                self.S.append(x)
                self.W += 1.0
                continue
            pi_x = self._normalize(x)
            if self.rng.random() <= pi_x:
                # accept x; select a victim — first try the demoted set
                # A with Chao's adjusted probabilities, else uniform S.
                y = None
                alpha = 0.0
                U = self.rng.random()
                for itm, w in list(self._A):
                    alpha += max(
                        0.0, (1.0 - (self.n - len(self.V)) * w / self.W)
                    ) / pi_x
                    if U <= alpha:
                        y = itm
                        self._A = [
                            [i2, w2] for i2, w2 in self._A if i2 is not itm
                        ]
                        break
                if y is None and self.S:
                    j = int(self.rng.integers(len(self.S)))
                    self.S.pop(j)
                if not any(itm is x for itm, _ in self.V):
                    self.S.append(x)
            else:
                # x rejected: its weight leaves the aggregate.
                self.W -= 1.0
            # demoted items re-join S (their weights are absorbed in W)
            self.S.extend(itm for itm, _ in self._A)
            self._A = []

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        return list(self.S) + [itm for itm, _ in self.V]
