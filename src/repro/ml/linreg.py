"""Linear regression (Sec. 6.3).

The paper's second application uses the standard linear model
``y = b1·x1 + b2·x2 + ε`` with no intercept (both modes of the data
generator are intercept-free), so the retrained model is a plain
least-squares fit on the current sample.
"""
from __future__ import annotations

import numpy as np


class LinearRegression:
    """Ordinary least squares without an intercept."""

    def __init__(self):
        self.coef_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        y = np.asarray(y, dtype=float)
        A = np.asarray(X, dtype=float)
        if len(A) == 0:
            raise ValueError("cannot fit on an empty sample")
        self.coef_, *_ = np.linalg.lstsq(A, y, rcond=None)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit() before predict()")
        return np.asarray(X, dtype=float) @ self.coef_
