"""Tests for the randomness substrate (repro.rng)."""
import math

import numpy as np
import pytest

from repro.rng import (
    binomial,
    hypergeometric,
    make_rng,
    multivariate_hypergeometric_split,
    sample_without_replacement,
    stochastic_round,
)


@pytest.fixture
def rng():
    return make_rng(12345)


class TestMakeRng:
    def test_from_int(self):
        assert isinstance(make_rng(0), np.random.Generator)

    def test_from_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_passthrough(self):
        g = np.random.default_rng(7)
        assert make_rng(g) is g

    def test_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()


class TestBinomial:
    def test_zero_trials(self, rng):
        assert binomial(rng, 0, 0.5) == 0

    def test_negative_trials(self, rng):
        assert binomial(rng, -3, 0.5) == 0

    def test_p_zero(self, rng):
        assert binomial(rng, 100, 0.0) == 0

    def test_p_one(self, rng):
        assert binomial(rng, 100, 1.0) == 100

    def test_range(self, rng):
        for _ in range(200):
            k = binomial(rng, 10, 0.3)
            assert 0 <= k <= 10

    def test_mean(self, rng):
        draws = [binomial(rng, 50, 0.4) for _ in range(4000)]
        # SE of mean ~ sqrt(50*.4*.6/4000) ~ 0.055
        assert abs(np.mean(draws) - 20.0) < 0.3


class TestHypergeometric:
    def test_zero_sample(self, rng):
        assert hypergeometric(rng, 0, 5, 5) == 0

    def test_zero_good(self, rng):
        assert hypergeometric(rng, 3, 0, 5) == 0

    def test_all_good(self, rng):
        assert hypergeometric(rng, 4, 4, 0) == 4

    def test_clamps_oversized_sample(self, rng):
        assert hypergeometric(rng, 100, 3, 2) == 3

    def test_range(self, rng):
        for _ in range(200):
            m = hypergeometric(rng, 6, 4, 8)
            assert max(0, 6 - 8) <= m <= min(4, 6)

    def test_mean(self, rng):
        # E[M] = k * a/(a+b) = 10 * 30/100 = 3
        draws = [hypergeometric(rng, 10, 30, 70) for _ in range(4000)]
        assert abs(np.mean(draws) - 3.0) < 0.1


class TestStochasticRound:
    def test_integer_passthrough(self, rng):
        assert stochastic_round(rng, 5.0) == 5
        assert stochastic_round(rng, 0.0) == 0

    def test_negative_raises(self, rng):
        with pytest.raises(ValueError):
            stochastic_round(rng, -0.1)

    def test_two_point_support(self, rng):
        vals = {stochastic_round(rng, 3.7) for _ in range(500)}
        assert vals == {3, 4}

    @pytest.mark.parametrize("x", [0.25, 1.5, 2.9, 7.01, 10.999])
    def test_mean_preserving(self, x):
        rng = make_rng(int(x * 1000))
        draws = [stochastic_round(rng, x) for _ in range(20000)]
        se = math.sqrt(0.25 / 20000)
        assert abs(np.mean(draws) - x) < 5 * se + 1e-3


class TestSampleWithoutReplacement:
    def test_empty_input(self, rng):
        assert sample_without_replacement(rng, [], 3) == []

    def test_zero_m(self, rng):
        assert sample_without_replacement(rng, [1, 2, 3], 0) == []

    def test_m_exceeds_n(self, rng):
        out = sample_without_replacement(rng, [1, 2, 3], 10)
        assert sorted(out) == [1, 2, 3]

    def test_subset_no_duplicates(self, rng):
        items = list(range(20))
        for _ in range(100):
            out = sample_without_replacement(rng, items, 7)
            assert len(out) == 7
            assert len(set(out)) == 7
            assert set(out) <= set(items)

    def test_uniformity(self, rng):
        counts = np.zeros(10)
        for _ in range(10000):
            for i in sample_without_replacement(rng, list(range(10)), 3):
                counts[i] += 1
        freq = counts / 10000
        assert np.all(np.abs(freq - 0.3) < 0.025)


class TestMultivariateHypergeometricSplit:
    def test_sums_to_k(self, rng):
        for _ in range(100):
            counts = multivariate_hypergeometric_split(rng, [10, 20, 30], 25)
            assert sum(counts) == 25
            for c, size in zip(counts, [10, 20, 30]):
                assert 0 <= c <= size

    def test_k_zero(self, rng):
        assert multivariate_hypergeometric_split(rng, [5, 5], 0) == [0, 0]

    def test_k_equals_total(self, rng):
        assert multivariate_hypergeometric_split(rng, [5, 7], 12) == [5, 7]

    def test_k_too_large_raises(self, rng):
        with pytest.raises(ValueError):
            multivariate_hypergeometric_split(rng, [5, 7], 13)

    def test_marginal_mean(self, rng):
        # marginal of block i is hypergeometric: E = k * n_i / N
        sizes, k, trials = [10, 30, 60], 20, 5000
        acc = np.zeros(3)
        for _ in range(trials):
            acc += multivariate_hypergeometric_split(rng, sizes, k)
        means = acc / trials
        expected = np.array([k * s / 100 for s in sizes])
        assert np.all(np.abs(means - expected) < 0.15)
