"""Multinomial Naive Bayes over bag-of-words vectors (Sec. 6.4).

Following Katakis et al. [23], the paper retrains "Naive Bayes with a
bag of words model" on each sampling scheme's current sample. Counts
use Laplace smoothing; class priors come from sample frequencies.
"""
from __future__ import annotations

import numpy as np

ALPHA = 1.0  # Laplace smoothing: one pseudo-count per word and class


class MultinomialNB:
    """Binary/multi-class multinomial NB on count vectors."""

    def __init__(self):
        self.classes_: np.ndarray | None = None
        self._log_prior: np.ndarray | None = None
        self._log_lik: np.ndarray | None = None  # (n_classes, n_words)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultinomialNB":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit NB on an empty sample")
        self.classes_ = np.unique(y)
        n_classes, n_words = len(self.classes_), X.shape[1]
        prior = np.empty(n_classes)
        lik = np.empty((n_classes, n_words))
        for ci, c in enumerate(self.classes_):
            rows = X[y == c]
            prior[ci] = len(rows) / len(X)
            wc = rows.sum(axis=0) + ALPHA
            lik[ci] = np.log(wc / wc.sum())
        self._log_prior = np.log(prior)
        self._log_lik = lik
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("fit() before predict()")
        X = np.asarray(X, dtype=float)
        scores = X @ self._log_lik.T + self._log_prior[None, :]
        return self.classes_[np.argmax(scores, axis=1)]
