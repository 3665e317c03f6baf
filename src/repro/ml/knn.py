"""k-nearest-neighbour classifier (Sec. 6.2).

The paper's first application: "a class is predicted for each item in
an incoming batch by taking a majority vote of the classes of the k
nearest neighbors in the current sample, based on Euclidean distance".
kNN is the motivating *non-parametric* model — there is no incremental
variant, so periodic retraining on a sample is the natural fit.

``predict`` has no per-row Python loop. It builds one (batch × sample)
matrix of squared distances, picks each row's k nearest with
``argpartition`` and sorts those k nearest first. The vote counts, for
each of a row's k votes, how many of the k votes share its class, and
returns the first vote with the highest count. That is the nearest vote
of a most-supported class, so a tie in the count breaks toward the class
whose nearest supporter is closest.

The distance is ``(|x|² − 2·x·t) + |t|²``, summed in that order, with the
norms from ``np.sum(A * A, axis=1)``. Changing that order or the way the
norms are summed (``np.einsum``, say) changes the last bits of some
distances, and that can reorder near-tied neighbours and so change
predicted labels.
"""
from __future__ import annotations

import numpy as np


class KNNClassifier:
    """Majority-vote kNN over a (possibly re-assigned) training sample."""

    def __init__(self, k: int = 7):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit kNN on an empty sample")
        self._X, self._y = X, y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("fit() before predict()")
        X = np.asarray(X, dtype=float)
        T = self._X
        k = min(self.k, len(T))
        # squared Euclidean distances, (m_test, m_train), built in place;
        # scaling by -2 is exact, so this rounds as (|x|² - 2x·t) + |t|²
        d2 = (-2.0 * X) @ T.T
        np.add(np.sum(X * X, axis=1)[:, None], d2, out=d2)
        d2 += np.sum(T * T, axis=1)
        # k nearest per row, sorted nearest first
        nn = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(len(X))[:, None]
        order = np.argsort(d2[rows, nn], axis=1)
        votes = self._y[nn[rows, order]]  # (m_test, k)
        # support[i, j]: how many of row i's votes agree with vote j;
        # argmax takes the nearest vote of a most-supported class
        support = (votes[:, :, None] == votes[:, None, :]).sum(axis=2)
        return votes[rows[:, 0], np.argmax(support, axis=1)]
