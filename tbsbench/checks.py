"""Correctness checks the benchmark applies to the program's outputs.

* ``WeightTracker`` recomputes the total weight ``W`` and sample weight
  ``C = min(n, W)`` of Algorithm 2 from the batch sizes alone, names the
  branch each round takes, and checks a sampler's state against them.
* ``age_profile_test`` compares a realized sample's per-batch counts with
  Thm 4.2, ``E[#batch j] = B_j (C/W) e^{-lam (t-j)}``, by a chi-square test.
* ``reference_knn`` is a plain loop kNN with the nearest-first tie-break
  that ``repro.ml.knn.KNNClassifier`` documents.
"""
from __future__ import annotations

import math

import numpy as np

EPS = 1e-9  # the program's float tolerance for W, C and floor(C)
BRANCHES = ("saturated", "undershoot", "unsaturated", "overshoot")


class WeightTracker:
    """Alg. 2's scalar state, kept apart from the sampler under test."""

    def __init__(self, lam: float, n: int):
        self.lam = lam
        self.n = n
        self.decay = math.exp(-lam)
        self.W = 0.0
        self.sizes: list[int] = []  # batch size by batch index
        self.branches: list[str] = []

    @property
    def C(self) -> float:
        return min(float(self.n), self.W)

    def step(self, b: int) -> str:
        """Advance by one batch of ``b`` rows (dt = 1); return the branch."""
        W = self.W * self.decay + b
        if self.W < self.n - EPS:
            branch = "overshoot" if W > self.n + EPS else "unsaturated"
        else:
            branch = "saturated" if W >= self.n - EPS else "undershoot"
        self.W = W
        self.sizes.append(b)
        self.branches.append(branch)
        return branch

    def check(self, W: float, C: float, full: int, has_partial: bool) -> list[str]:
        """Problems with a sampler state (W, C, |A|, partial present)."""
        errs = []
        tol = 1e-9 * max(1.0, self.W)
        if abs(W - self.W) > tol:
            errs.append(f"W={W!r}, expected {self.W!r}")
        if abs(C - self.C) > tol:
            errs.append(f"C={C!r}, expected min(n, W)={self.C!r}")
        if full != math.floor(self.C + EPS):
            errs.append(f"|A|={full}, expected floor(C)={math.floor(self.C + EPS)}")
        fractional = self.C - math.floor(self.C + EPS) > 2 * EPS
        if has_partial != fractional:
            errs.append(f"partial item present={has_partial}, C={self.C!r}")
        return errs

    def expected_ages(self) -> np.ndarray:
        """Thm 4.2: expected count of each batch in a realized sample now."""
        sizes = np.asarray(self.sizes, dtype=float)
        age = np.arange(len(sizes))[::-1]
        return sizes * (self.C / self.W) * np.exp(-self.lam * age)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square law (Wilson-Hilferty approximation)."""
    h = 2.0 / (9.0 * df)
    z = ((x / df) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def age_profile_test(observed: np.ndarray, expected: np.ndarray) -> tuple[bool, str]:
    """Chi-square test of per-batch counts against their expectation.

    Batches with zero expectation must be absent from the sample. Bins are
    pooled from the oldest batch on until each expects at least 5 items.
    The counts of a without-replacement sample vary less than multinomial
    counts, so the test errs towards passing; a real bias in a sample of
    this size still gives a p-value far below the threshold.
    """
    observed = np.asarray(observed, dtype=float)
    if np.any(observed[expected <= 0] > 0):
        return False, "items from a batch with zero expected count"
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if exp_bins:
        obs_bins[-1] += o_acc
        exp_bins[-1] += e_acc
    if len(exp_bins) < 2:
        return False, f"too few bins ({len(exp_bins)}) for a chi-square test"
    o, e = np.asarray(obs_bins), np.asarray(exp_bins)
    stat = float(np.sum((o - e) ** 2 / e))
    p = chi2_sf(stat, len(e) - 1)
    return p > 1e-6, f"chi2={stat:.2f} df={len(e) - 1} p={p:.3g}"


def reference_knn(X_train: np.ndarray, y_train: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Majority vote of the k nearest training points, one row at a time;
    a tie goes to the tied class whose nearest vote is closest."""
    k = min(k, len(X_train))
    out = np.empty(len(X), dtype=y_train.dtype)
    for i, x in enumerate(X):
        d2 = ((X_train - x) ** 2).sum(axis=1)
        votes = y_train[np.argsort(d2, kind="stable")[:k]]
        counts: dict = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        out[i] = next(v for v in votes if counts[v] == best)
    return out
