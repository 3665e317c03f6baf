"""Gaussian-mixture classification stream (Sec. 6.2).

100 class centroids uniform in [0,80]×[0,80]; each item picks a
ground-truth class by mode-dependent relative frequency and draws its
coordinates from N(centroid, 1) per axis. In "normal" mode the first 50
classes are 5× more frequent than the last 50; in "abnormal" mode the
roles flip.
"""
from __future__ import annotations

import numpy as np

from repro.rng import make_rng

N_CLASSES = 100
BOX = 80.0  # centroids are uniform in [0, BOX]²
SIGMA = 1.0  # per-axis standard deviation around a centroid
FREQ_RATIO = 5.0  # relative frequency of the frequent half of the classes


class GaussianMixtureStream:
    """Mode-switching 2-D Gaussian mixture over ``N_CLASSES`` classes."""

    def __init__(self, seed: int | np.random.Generator = 0):
        self.rng = make_rng(seed)
        self.centroids = self.rng.uniform(0.0, BOX, size=(N_CLASSES, 2))
        half = N_CLASSES // 2
        w_norm = np.concatenate(
            [np.full(half, FREQ_RATIO), np.full(half, 1.0)]
        )
        self._p = {
            "normal": w_norm / w_norm.sum(),
            "abnormal": w_norm[::-1] / w_norm.sum(),
        }

    def batch(self, mode: str, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate one batch: returns (X, y) with X of shape (size, 2)."""
        if mode not in self._p:
            raise ValueError(f"unknown mode {mode!r}")
        y = self.rng.choice(N_CLASSES, size=size, p=self._p[mode])
        X = self.centroids[y] + self.rng.normal(0.0, SIGMA, size=(size, 2))
        return X, y
