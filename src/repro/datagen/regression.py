"""Linear-regression stream (Sec. 6.3).

``y = b1·x1 + b2·x2 + ε`` with ``ε ~ N(0,1)``, ``x1, x2 ~ Uniform(0,1)``.
Normal mode: (b1, b2) = (4.2, −0.4); abnormal mode: (−3.6, 3.8).
"""
from __future__ import annotations

import numpy as np

from repro.rng import make_rng

COEFFS = {"normal": (4.2, -0.4), "abnormal": (-3.6, 3.8)}
NOISE = 1.0  # standard deviation of ε


class RegressionStream:
    """Mode-switching linear data generator."""

    def __init__(self, seed: int | np.random.Generator = 0):
        self.rng = make_rng(seed)

    def batch(self, mode: str, size: int) -> tuple[np.ndarray, np.ndarray]:
        if mode not in COEFFS:
            raise ValueError(f"unknown mode {mode!r}")
        b1, b2 = COEFFS[mode]
        X = self.rng.uniform(0.0, 1.0, size=(size, 2))
        y = b1 * X[:, 0] + b2 * X[:, 1] + self.rng.normal(0.0, NOISE, size)
        return X, y
