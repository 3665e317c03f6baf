"""Tests for B-RS (Algorithm 5, Appendix B) — the "Unif" baseline."""
import math
from collections import Counter

import numpy as np
import pytest

from repro.core.brs import BRS


def batch(t, size):
    return [(t, i) for i in range(size)]


class TestConstruction:
    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            BRS(0)


class TestSize:
    def test_size_is_min_n_seen(self):
        s = BRS(10, seed=0)
        total = 0
        for t in range(8):
            s.advance(batch(t, 3))
            total += 3
            assert len(s.sample()) == min(10, total)

    def test_empty_batch_noop(self):
        s = BRS(5, seed=1)
        s.advance(batch(0, 5))
        before = sorted(s.sample())
        s.advance([])
        assert sorted(s.sample()) == before


class TestUniformity:
    def test_equal_inclusion_probabilities(self):
        """At any t, every item seen so far appears w.p. n/W (λ=0 in (1))."""
        n, b, T, trials = 8, 5, 6, 6000
        cnt = Counter()
        for tr in range(trials):
            s = BRS(n, seed=tr)
            for t in range(1, T + 1):
                s.advance(batch(t, b))
            for (t, _) in s.sample():
                cnt[t] += 1
        W = b * T
        theory = n / W
        for t in range(1, T + 1):
            emp = cnt[t] / (trials * b)
            se = math.sqrt(theory * (1 - theory) / (trials * b))
            assert abs(emp - theory) < 5 * se + 2e-3, (t, theory, emp)

    def test_within_batch_uniform(self):
        """Items of one batch are interchangeable (condition (i) of Sec. 1)."""
        n, trials = 6, 8000
        cnt = Counter()
        for tr in range(trials):
            s = BRS(n, seed=tr)
            s.advance(batch(1, 12))
            for (_, i) in s.sample():
                cnt[i] += 1
        theory = n / 12
        for i in range(12):
            emp = cnt[i] / trials
            assert abs(emp - theory) < 0.03

    def test_big_batch_then_small(self):
        # hypergeometric path with |B| >> W
        s = BRS(4, seed=3)
        s.advance(batch(0, 100))
        s.advance(batch(1, 1))
        assert len(s.sample()) == 4
        assert s.seen == 101
