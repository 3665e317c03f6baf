"""Sliding window over the last ``n`` items ("SW" baseline, Sec. 6.2).

The paper's SW baseline retains the most recent ``n`` items (count-
based window: "SW contains the last 1000 items"), completely forgetting
anything older — the all-or-nothing inclusion mechanism whose lack of
robustness the experiments demonstrate.
"""
from __future__ import annotations

from collections import deque
from typing import Any, Iterable

import numpy as np


class SlidingWindow:
    """Keep the ``n`` most recently arrived items."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("window size must be >= 1")
        self.n = int(n)
        self.items: deque[Any] = deque(maxlen=self.n)

    def advance(self, batch: Iterable[Any], dt: float = 1.0) -> None:
        self.items.extend(batch)

    def sample(self, rng: np.random.Generator | None = None) -> list[Any]:
        return list(self.items)
