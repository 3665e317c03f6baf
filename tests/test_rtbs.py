"""Tests for R-TBS (Algorithm 2) — invariants, weights, Theorem 4.2."""
import math
from collections import Counter

import numpy as np
import pytest

from repro.core.latent import EPS
from repro.core.rtbs import RTBS
from repro.rng import make_rng


def batch(t, size):
    return [(t, i) for i in range(size)]


class TestConstruction:
    def test_negative_lambda_raises(self):
        with pytest.raises(ValueError):
            RTBS(-0.1, 10)

    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            RTBS(0.1, 0)


class TestSizeBound:
    @pytest.mark.parametrize("lam,n,bs", [(0.07, 50, 10), (0.5, 20, 40), (0.01, 10, 100)])
    def test_never_exceeds_n(self, lam, n, bs):
        r = RTBS(lam, n, seed=1)
        for t in range(100):
            r.advance(batch(t, bs))
            assert len(r.sample()) <= n
            assert r.latent.footprint <= n + 1
            assert r.sample_weight <= n + 1e-9

    def test_saturated_sample_is_exactly_n(self):
        r = RTBS(0.05, 30, seed=2)
        for t in range(50):
            r.advance(batch(t, 20))
        # W = 20/(1-e^-.05) ≈ 410 >> 30: saturated, C = n exactly
        assert r.total_weight > r.n
        assert len(r.latent.full) == r.n
        assert r.latent.partial is None
        assert len(r.sample()) == r.n


class TestWeights:
    def test_total_weight_recursion(self):
        """W_t = e^{-λ} W_{t-1} + B_t for every step (Sec. 4.1)."""
        lam = 0.3
        r = RTBS(lam, 15, seed=3)
        W = 0.0
        sizes = [7, 0, 30, 2, 0, 0, 11, 5, 0, 100, 1]
        for t, b in enumerate(sizes):
            r.advance(batch(t, b))
            W = math.exp(-lam) * W + b
            assert abs(r.total_weight - W) < 1e-7

    def test_closed_form_weight(self):
        lam, bs, T = 0.07, 10, 60
        r = RTBS(lam, 10_000, seed=4)
        for t in range(1, T + 1):
            r.advance(batch(t, bs))
        expected = sum(bs * math.exp(-lam * (T - j)) for j in range(1, T + 1))
        assert abs(r.total_weight - expected) < 1e-6

    def test_unsaturated_C_equals_W(self):
        r = RTBS(0.2, 1000, seed=5)
        for t in range(40):
            r.advance(batch(t, 10))
            # W_inf = 10/(1-e^-0.2) ≈ 55 < 1000: never saturates
            assert abs(r.sample_weight - r.total_weight) < 1e-7

    def test_real_valued_time_gaps(self):
        """advance(dt) must decay by e^{-λ·dt} (Sec. 2 extension)."""
        lam = 0.4
        r = RTBS(lam, 100, seed=6)
        r.advance(batch(0, 10), dt=1.0)
        r.advance(batch(1, 0), dt=2.5)
        expected = 10 * math.exp(-lam * 2.5)
        assert abs(r.total_weight - expected) < 1e-9

    def test_stable_unsaturated_size_1479(self):
        """Paper Sec. 6.3: n=1600, b=100, λ=0.07 stabilizes at 1479."""
        r = RTBS(0.07, 1600, seed=7)
        for t in range(300):
            r.advance(batch(t, 100))
        assert abs(r.sample_weight - 1479) < 2


class TestDynamics:
    def test_empty_batches_shrink_sample(self):
        r = RTBS(0.5, 50, seed=8)
        r.advance(batch(0, 40))
        sizes = []
        for t in range(1, 15):
            r.advance([])
            sizes.append(r.sample_weight)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] < 1.0

    def test_weight_can_decay_to_near_zero(self):
        r = RTBS(1.0, 10, seed=9)
        r.advance(batch(0, 5))
        for t in range(30):
            r.advance([])
        assert r.total_weight < 1e-10
        assert len(r.sample()) == 0

    def test_undershoot_then_refill(self):
        # saturate, starve to force the undershoot branch, then refill
        r = RTBS(0.3, 10, seed=10)
        r.advance(batch(0, 50))            # overshoot -> saturated
        assert r.total_weight >= r.n
        r.advance(batch(1, 1))             # undershoot: e^-.3*50+1 ≈ 38 no..
        for t in range(2, 12):
            r.advance([])                   # starve until W < n
        assert r.total_weight < r.n
        r.advance(batch(12, 100))          # overshoot again
        assert len(r.latent.full) == r.n
        r.latent.check_invariants()

    def test_long_gap_undershoot(self):
        # e^{-0.1·400}·10 is below the ulp of 3: W - b rounds to 0, but
        # the decayed weight has vanished, so only the new batch remains.
        r = RTBS(0.1, 5)
        r.advance(range(10))
        r.advance(range(10, 13), dt=400)
        assert r.total_weight == 3.0 and r.sample_weight == 3.0
        assert sorted(r.sample()) == [10, 11, 12]

    def test_lambda_zero_is_plain_reservoir(self):
        # λ=0: no decay; W counts all arrivals, cap respected
        r = RTBS(0.0, 5, seed=11)
        for t in range(10):
            r.advance(batch(t, 3))
        assert abs(r.total_weight - 30) < 1e-9
        assert len(r.sample()) == 5


class TestExactSampleWeight:
    """C_t = min(n, W_t) bitwise, as Alg. 2 defines it (Sec. 4.1)."""

    @pytest.mark.parametrize("lam", [0.0, 0.1, 50.0])
    def test_random_schedules(self, lam):
        """Empty batches, batches larger than n, dt ∈ {0, 1, 400}: outside
        the EPS band |W − n| ≤ EPS, C is W below n and n above it."""
        cfg = np.random.default_rng(2018)
        for run in range(40):
            n = int(cfg.integers(1, 20))
            r = RTBS(lam, n, seed=run)
            for t in range(25):
                b = 0 if cfg.random() < 0.3 else int(cfg.integers(1, 3 * n + 1))
                r.advance(batch(t, b), dt=float(cfg.choice([0.0, 1.0, 400.0])))
                W, C = r.total_weight, r.sample_weight
                if abs(W - n) > EPS:
                    assert C == (W if W < n else n), (lam, run, t, W, C)

    def test_within_eps_band(self):
        """A round that leaves W within EPS below n keeps C = W, and the
        saturated round after it sets C = n; one that leaves W within EPS
        above n sets C = n."""
        n = 3
        r = RTBS(1.0, n, seed=0)
        r.advance(batch(0, 2))
        r.advance(batch(1, 1), dt=2.5e-10)  # W = 2·e^{-2.5e-10} + 1
        assert n - EPS <= r.total_weight < n
        assert r.sample_weight == r.total_weight
        r.advance(batch(2, 5), dt=0.0)
        assert r.total_weight > n + EPS and r.sample_weight == n
        n = 5
        r = RTBS(1.0, n, seed=0)
        r.advance(batch(0, 3))
        r.advance(batch(1, 3), dt=math.log(3 / (2 + 5e-10)))  # W = 5 + 5e-10
        assert n < r.total_weight <= n + EPS
        assert r.sample_weight == n


class TestInclusionProbabilities:
    """Theorem 4.2: Pr[i∈S_t] = (C_t/W_t)·e^{-λ(t-t_i)}."""

    def _empirical(self, lam, n, schedule, trials, seed0=0):
        cnt = Counter()
        for tr in range(trials):
            r = RTBS(lam, n, seed=seed0 + tr)
            for t, b in enumerate(schedule, start=1):
                r.advance(batch(t, b))
            for (t, _i) in r.sample():
                cnt[t] += 1
        T = len(schedule)
        W = sum(b * math.exp(-lam * (T - j)) for j, b in enumerate(schedule, 1))
        C = min(n, W)
        out = []
        for t, b in enumerate(schedule, start=1):
            if b == 0:
                continue
            theory = (C / W) * math.exp(-lam * (T - t))
            emp = cnt[t] / (trials * b)
            out.append((t, theory, emp, b))
        return out

    def test_saturated_regime(self):
        rows = self._empirical(0.5, 8, [4, 4, 4, 4, 4, 4], trials=8000)
        for t, theory, emp, b in rows:
            se = math.sqrt(theory * (1 - theory) / (8000 * b))
            assert abs(emp - theory) < 5 * se + 2e-3, (t, theory, emp)

    def test_mixed_regime_with_undershoot(self):
        rows = self._empirical(
            0.4, 8, [10, 0, 0, 5, 0, 12, 0, 0, 0, 3], trials=8000, seed0=10**6
        )
        for t, theory, emp, b in rows:
            se = math.sqrt(max(theory * (1 - theory), 1e-4) / (8000 * b))
            assert abs(emp - theory) < 5 * se + 2e-3, (t, theory, emp)

    def test_relative_property_eq1(self):
        """Pr ratios between consecutive batches = e^{-λ}  (property (1))."""
        lam = 0.3
        rows = self._empirical(lam, 10, [6, 6, 6, 6, 6], trials=8000, seed0=5 * 10**5)
        for (t1, _, emp1, _), (t2, _, emp2, _) in zip(rows, rows[1:]):
            ratio = emp1 / emp2
            assert abs(ratio - math.exp(-lam * (t2 - t1))) < 0.06, (t1, t2, ratio)

    def test_expected_sample_size_is_C(self):
        lam, n = 0.5, 8
        schedule = [4, 4, 4, 4]
        sizes = []
        for tr in range(8000):
            r = RTBS(lam, n, seed=tr + 31337)
            for t, b in enumerate(schedule, 1):
                r.advance(batch(t, b))
            sizes.append(len(r.sample()))
        T = len(schedule)
        W = sum(4 * math.exp(-lam * (T - j)) for j in range(1, T + 1))
        C = min(n, W)
        assert abs(np.mean(sizes) - C) < 0.05

    def test_sample_size_two_point_distribution(self):
        """Thm 4.4: realized |S_t| concentrates on {⌊C⌋, ⌈C⌉}."""
        lam, n = 0.5, 8
        sizes = set()
        for tr in range(300):
            r = RTBS(lam, n, seed=tr)
            for t in range(1, 5):
                r.advance(batch(t, 4))
            sizes.add(len(r.sample()))
        W = sum(4 * math.exp(-0.5 * (4 - j)) for j in range(1, 5))
        C = min(n, W)
        assert sizes <= {math.floor(C), math.ceil(C)}
