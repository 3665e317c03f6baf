"""Tests for the synthetic stream generators (Sec. 6 workloads)."""
import numpy as np
import pytest

from repro.datagen import batches
from repro.datagen.gaussian_mixture import GaussianMixtureStream
from repro.datagen.modes import ABNORMAL, NORMAL, Periodic, SingleEvent
from repro.datagen.regression import COEFFS, RegressionStream
from repro.datagen.usenet import N_MESSAGES, SEGMENT, UsenetStream


class TestModes:
    def test_single_event(self):
        p = SingleEvent()
        assert [p.mode(t) for t in (1, 10, 11, 20, 21, 40)] == [
            NORMAL, NORMAL, ABNORMAL, ABNORMAL, NORMAL, NORMAL,
        ]

    def test_periodic_10_10(self):
        p = Periodic(10, 10)
        assert p.mode(1) == NORMAL
        assert p.mode(10) == NORMAL
        assert p.mode(11) == ABNORMAL
        assert p.mode(20) == ABNORMAL
        assert p.mode(21) == NORMAL
        assert p.mode(31) == ABNORMAL

    def test_periodic_16_16(self):
        p = Periodic(16, 16)
        assert p.mode(16) == NORMAL
        assert p.mode(17) == ABNORMAL
        assert p.mode(32) == ABNORMAL
        assert p.mode(33) == NORMAL

    def test_names(self):
        assert SingleEvent().name == "SingleEvent"
        assert Periodic(16, 16).name == "P(16,16)"


class TestGaussianMixture:
    def test_shapes(self):
        g = GaussianMixtureStream(seed=0)
        X, y = g.batch("normal", 100)
        assert X.shape == (100, 2) and y.shape == (100,)
        assert y.min() >= 0 and y.max() < 100

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            GaussianMixtureStream(seed=0).batch("weird", 10)

    def test_frequency_flip(self):
        g = GaussianMixtureStream(seed=1)
        _, yn = g.batch("normal", 20000)
        _, ya = g.batch("abnormal", 20000)
        frac_low_normal = np.mean(yn < 50)
        frac_low_abnormal = np.mean(ya < 50)
        # 5:1 ratio -> first 50 classes hold 5/6 of normal-mode mass
        assert abs(frac_low_normal - 5 / 6) < 0.02
        assert abs(frac_low_abnormal - 1 / 6) < 0.02

    def test_points_near_centroids(self):
        g = GaussianMixtureStream(seed=2)
        X, y = g.batch("normal", 500)
        d = np.linalg.norm(X - g.centroids[y], axis=1)
        assert np.mean(d) < 2.0  # Rayleigh mean ≈ 1.25 at σ=1

    def test_deterministic_given_seed(self):
        a = GaussianMixtureStream(seed=3).batch("normal", 10)
        b = GaussianMixtureStream(seed=3).batch("normal", 10)
        assert np.allclose(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestRegressionStream:
    def test_modes_recoverable(self):
        for mode, (b1, b2) in COEFFS.items():
            s = RegressionStream(seed=4)
            X, y = s.batch(mode, 5000)
            beta, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert abs(beta[0] - b1) < 0.15 and abs(beta[1] - b2) < 0.15

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            RegressionStream().batch("x", 1)


class TestUsenet:
    def test_shapes_and_labels(self):
        X, y = UsenetStream(seed=5).generate()
        assert X.shape[0] == N_MESSAGES
        assert set(np.unique(y)) <= {0, 1}
        assert X.min() >= 0

    def test_interest_recurs(self):
        s = UsenetStream
        assert s.interest_set(0) == s.interest_set(650)  # segments 0 and 2
        assert s.interest_set(0) != s.interest_set(350)  # flip at 300

    def test_context_flip_changes_label_distribution(self):
        X, y = UsenetStream(seed=6).generate()
        # interesting rate is ~1/3 in every segment, but the *word
        # associations* flip: messages about topic 0 are interesting in
        # even segments only.
        seg0 = slice(0, SEGMENT)
        seg1 = slice(SEGMENT, 2 * SEGMENT)
        assert 0.2 < np.mean(y[seg0]) < 0.5
        assert 0.2 < np.mean(y[seg1]) < 0.5

    def test_learnable_within_context(self):
        """NB trained on one context's first half predicts its second
        half well — the generator carries signal."""
        from repro.ml.naive_bayes import MultinomialNB

        X, y = UsenetStream(seed=8).generate()
        m = MultinomialNB().fit(X[:200], y[:200])
        acc = np.mean(m.predict(X[200:300]) == y[200:300])
        assert acc > 0.85


class TestBatchSizePatterns:
    def test_constant(self):
        fn = batches.constant(100)
        assert [fn(t) for t in (1, 50, 999)] == [100, 100, 100]

    def test_multiplicative_growth(self):
        fn = batches.multiplicative(100, 1.02, t0=10)
        assert fn(9) == 100
        assert fn(10) == 102
        assert fn(20) > fn(10)

    def test_multiplicative_decay_to_zero(self):
        fn = batches.multiplicative(100, 0.5, t0=1)
        assert fn(30) == 0

    def test_uniform_range(self):
        fn = batches.uniform(0, 200, seed=0)
        vals = [fn(t) for t in range(500)]
        assert min(vals) >= 0 and max(vals) <= 200
        assert abs(np.mean(vals) - 100) < 10
