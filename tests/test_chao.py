"""Tests for B-Chao (Appendix D) — including the property-(1) violations
that motivate R-TBS."""
import math
from collections import Counter

import numpy as np
import pytest

from repro.core.chao import BChao


def batch(t, size):
    return [(t, i) for i in range(size)]


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BChao(-0.1, 5)
        with pytest.raises(ValueError):
            BChao(0.1, 0)


class TestSizePinned:
    def test_size_nondecreasing_then_pinned(self):
        """Unlike R-TBS, the Chao sample never shrinks (Appendix D)."""
        s = BChao(0.2, 20, seed=0)
        sizes = []
        for t in range(30):
            s.advance(batch(t, 5))
            sizes.append(len(s.sample()))
        assert sizes == sorted(sizes[:5]) + [20] * (len(sizes) - 5) or all(
            a <= b for a, b in zip(sizes, sizes[1:])
        )
        assert sizes[-1] == 20

    def test_pinned_even_when_starved(self):
        """With no arrivals the sample stays at n — overweight items are
        carried at probability 1 instead of decaying (the violation)."""
        s = BChao(0.5, 10, seed=1)
        s.advance(batch(0, 50))
        for t in range(1, 20):
            s.advance([])
        assert len(s.sample()) == 10


class TestFillUpViolation:
    def test_equal_probabilities_during_fillup(self):
        """Appendix D: while filling, all items are accepted w.p. 1, so
        items of different ages appear with the same probability —
        violating (1), which demands a ratio of e^{-λ} per step."""
        lam, n = 0.5, 100
        s = BChao(lam, n, seed=2)
        for t in range(1, 4):
            s.advance(batch(t, 10))  # 30 < n: still filling
        got = Counter(t for (t, _) in s.sample())
        assert got[1] == got[2] == got[3] == 10  # deterministic fill
        # property (1) would require got[1]/got[3] ≈ e^{-2λ} ≈ 0.37

    def test_overweight_overrepresentation(self):
        """Slow arrivals at high λ: the newest item is overweight, so its
        empirical inclusion probability is 1 — higher than (1) allows."""
        lam, n, trials = 2.0, 5, 800
        newest = 0
        for tr in range(trials):
            s = BChao(lam, n, seed=tr)
            for t in range(1, 12):
                s.advance(batch(t, 1))
            if any(t == 11 for (t, _) in s.sample()):
                newest += 1
        # with n=5 items and weights e^{-2k}: W ≈ 1.157, C/W·w = n·w/W > 1
        # → capped at 1; Chao keeps it with probability exactly 1.
        assert newest == trials


class TestSteadyState:
    def test_decay_shape_for_non_overweight(self):
        """In a saturated steady state with constant arrivals, middle-aged
        (non-overweight) items should decay roughly exponentially."""
        lam, n, b, T, trials = 0.2, 30, 10, 12, 2500
        cnt = Counter()
        for tr in range(trials):
            s = BChao(lam, n, seed=tr)
            for t in range(1, T + 1):
                s.advance(batch(t, b))
            for (t, _) in s.sample():
                cnt[t] += 1
        # compare adjacent-age ratios for ages 2..5 (recent but not newest)
        probs = {t: cnt[t] / (trials * b) for t in range(1, T + 1)}
        for t in range(T - 4, T - 1):
            ratio = probs[t] / probs[t + 1]
            assert 0.7 * math.exp(-lam) < ratio < 1.35 * math.exp(-lam) + 0.15, (
                t,
                ratio,
            )
