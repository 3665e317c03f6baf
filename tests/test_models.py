"""Tests for the ML models (kNN, linear regression, Naive Bayes)."""
import numpy as np
import pytest

from repro.ml.knn import KNNClassifier
from repro.ml.linreg import LinearRegression
from repro.ml.naive_bayes import MultinomialNB


class TestKNN:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNNClassifier().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            KNNClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_1nn_exact(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        y = np.array([0, 1])
        m = KNNClassifier(k=1).fit(X, y)
        pred = m.predict(np.array([[0.1, 0.2], [9.5, 9.9]]))
        assert list(pred) == [0, 1]

    def test_majority_vote(self):
        # two class-0 points near origin outvote one class-1 point
        X = np.array([[0, 0], [0.1, 0], [0, 0.1], [5, 5]], dtype=float)
        y = np.array([0, 0, 1, 1])
        m = KNNClassifier(k=3).fit(X, y)
        assert m.predict(np.array([[0.0, 0.05]]))[0] == 0

    def test_k_clipped_to_sample_size(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0])
        m = KNNClassifier(k=7).fit(X, y)
        assert m.predict(np.array([[0.5, 0.5]]))[0] == 0

    def test_separable_gaussians_high_accuracy(self):
        rng = np.random.default_rng(1)
        X0 = rng.normal(0, 1, (200, 2))
        X1 = rng.normal(8, 1, (200, 2))
        X = np.vstack([X0, X1])
        y = np.array([0] * 200 + [1] * 200)
        m = KNNClassifier(k=7).fit(X, y)
        Xt = np.vstack([rng.normal(0, 1, (100, 2)), rng.normal(8, 1, (100, 2))])
        yt = np.array([0] * 100 + [1] * 100)
        assert np.mean(m.predict(Xt) == yt) > 0.98

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            KNNClassifier().fit(np.zeros((3, 2)), np.zeros(2))

    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_per_row_reference(self, d, labels):
        # Even k over 2-3 classes makes vote ties frequent; the sample is
        # sometimes smaller than k; the first batch has no rows.
        # Coordinates are continuous, so no two distances tie and the
        # nearest-first order is well defined.
        tied = 0
        for c in range(50):
            rng = np.random.default_rng([d, labels == "str", c])
            n = int(rng.integers(1, 40))
            k = int(rng.choice([2, 4, 6, 8, 3]))
            T = rng.normal(size=(n, d))
            X = rng.normal(size=(0 if c == 0 else int(rng.integers(1, 20)), d))
            y = rng.integers(0, int(rng.integers(2, 4)), n)
            if labels == "str":
                y = np.array(["red", "green", "blue"])[y]
            pred = KNNClassifier(k=k).fit(T, y).predict(X)
            want, n_tied = _reference_knn(T, y, X, k)
            assert pred.dtype == y.dtype
            np.testing.assert_array_equal(pred, want, err_msg=f"config {c}")
            tied += n_tied
        assert tied >= 50  # the tie-break decided many rows


def _reference_knn(T, y, X, k):
    """Per-row kNN: stable sort by distance, count the k nearest votes,
    take the nearest vote of a best-supported class. Also returns how
    many rows had a tie for the most votes."""
    k = min(k, len(T))
    out = np.empty(len(X), dtype=y.dtype)
    n_tied = 0
    for i, x in enumerate(X):
        votes = y[np.argsort(((T - x) ** 2).sum(axis=1), kind="stable")[:k]]
        counts = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        n_tied += list(counts.values()).count(best) > 1
        out[i] = next(v for v in votes if counts[v] == best)
    return out, n_tied


class TestLinearRegression:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (500, 2))
        y = 4.2 * X[:, 0] - 0.4 * X[:, 1] + rng.normal(0, 0.01, 500)
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.coef_, [4.2, -0.4], atol=0.02)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((0, 2)), np.zeros(0))

    def test_exact_on_noiseless(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([3.0, -2.0, 1.0])
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.predict(X), y, atol=1e-10)


class TestMultinomialNB:
    def _toy(self):
        # class 0 uses words {0,1}; class 1 uses words {2,3}
        X = np.array(
            [[5, 3, 0, 0], [4, 4, 1, 0], [0, 0, 6, 2], [0, 1, 3, 4]], dtype=float
        )
        y = np.array([0, 0, 1, 1])
        return X, y

    def test_separable(self):
        X, y = self._toy()
        m = MultinomialNB().fit(X, y)
        pred = m.predict(np.array([[3, 3, 0, 1], [0, 1, 5, 5]], dtype=float))
        assert list(pred) == [0, 1]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MultinomialNB().predict(np.zeros((1, 4)))

    def test_single_class_sample(self):
        X = np.array([[1, 2], [2, 1]], dtype=float)
        y = np.array([1, 1])
        m = MultinomialNB().fit(X, y)
        assert list(m.predict(X)) == [1, 1]

    def test_prior_influence(self):
        # word counts uninformative -> prior decides
        X = np.array([[1, 1]] * 9 + [[1, 1]], dtype=float)
        y = np.array([0] * 9 + [1])
        m = MultinomialNB().fit(X, y)
        assert m.predict(np.array([[1.0, 1.0]]))[0] == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            MultinomialNB().fit(np.zeros((3, 2)), np.zeros(2))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MultinomialNB().fit(np.zeros((0, 2)), np.zeros(0))
