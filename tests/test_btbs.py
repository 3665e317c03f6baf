"""Tests for B-TBS (Algorithm 4, Appendix A)."""
import math
from collections import Counter

import numpy as np
import pytest

from repro.core.btbs import BTBS


def batch(t, size):
    return [(t, i) for i in range(size)]


class TestConstruction:
    def test_negative_lambda_raises(self):
        with pytest.raises(ValueError):
            BTBS(-0.5)


class TestInclusionLaw:
    def test_appearance_probability_eq7(self):
        """Pr[x∈S_{t'}] = e^{-λ(t'-t)}  (eq. (7))."""
        lam, T, b, trials = 0.4, 5, 20, 5000
        cnt = Counter()
        for tr in range(trials):
            s = BTBS(lam, seed=tr)
            for t in range(1, T + 1):
                s.advance(batch(t, b))
            for (t, _) in s.sample():
                cnt[t] += 1
        for t in range(1, T + 1):
            theory = math.exp(-lam * (T - t))
            emp = cnt[t] / (trials * b)
            se = math.sqrt(theory * (1 - theory) / (trials * b))
            assert abs(emp - theory) < 5 * se + 2e-3, (t, theory, emp)


class TestSizeBehaviour:
    def test_equilibrium_mean_size(self):
        """Remark 1: mean size converges to b/(1-e^{-λ})."""
        lam, b = 0.2, 20
        expect = b / (1 - math.exp(-lam))
        sizes = []
        for tr in range(300):
            s = BTBS(lam, seed=tr)
            for t in range(60):
                s.advance(batch(t, b))
            sizes.append(len(s.sample()))
        assert abs(np.mean(sizes) - expect) < 0.05 * expect

    def test_no_size_control(self):
        """Growing batches -> unbounded sample (motivates T-TBS/R-TBS)."""
        s = BTBS(0.05, seed=1)
        bs = 10.0
        for t in range(150):
            bs *= 1.05
            s.advance(batch(t, int(bs)))
        assert len(s.sample()) > 10_000
