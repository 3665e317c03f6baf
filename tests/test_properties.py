"""Property-based tests (hypothesis) over random batch schedules.

These drive the samplers through arbitrary batch-size sequences and
check the structural invariants that must hold on *every* trajectory,
not just the statistical laws checked elsewhere.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brs import BRS
from repro.core.downsample import downsample
from repro.core.latent import LatentSample, ListReservoir
from repro.core.rtbs import RTBS
from repro.core.ttbs import TTBS
from repro.rng import make_rng

schedules = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=25)
lams = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)
caps = st.integers(min_value=1, max_value=40)


class TestRTBSProperties:
    @given(sched=schedules, lam=lams, n=caps, seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_invariants_along_any_trajectory(self, sched, lam, n, seed):
        r = RTBS(lam, n, seed=seed)
        W = 0.0
        for t, b in enumerate(sched):
            r.advance([(t, i) for i in range(b)])
            W = math.exp(-lam) * W + b
            # total weight follows the recursion exactly
            assert abs(r.total_weight - W) < 1e-6
            # C = min(n, W)
            assert abs(r.sample_weight - min(n, W)) < 1e-6
            # structural invariants and the hard cap
            r.latent.check_invariants()
            assert r.latent.footprint <= n + 1
            assert len(r.sample()) <= n

    @given(sched=schedules, lam=lams, n=caps, seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_realized_size_two_point(self, sched, lam, n, seed):
        r = RTBS(lam, n, seed=seed)
        for t, b in enumerate(sched):
            r.advance([(t, i) for i in range(b)])
        C = r.sample_weight
        size = len(r.sample())
        assert size in {math.floor(C + 1e-9), math.ceil(C - 1e-9)}


class TestDownsampleProperties:
    @given(
        C=st.floats(min_value=0.2, max_value=30.0),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_valid_pair(self, C, ratio, seed):
        Cp = C * ratio
        if Cp <= 1e-6:
            return
        k = math.floor(C + 1e-9)
        rng = make_rng(seed)
        L = LatentSample(
            ListReservoir(range(k), rng),
            partial=(k if C - k > 1e-9 else None),
            weight=C,
        )
        downsample(L, Cp, rng)
        L.check_invariants()
        assert abs(L.weight - Cp) < 1e-9 or abs(L.weight - round(Cp)) < 1e-9


class TestTTBSProperties:
    @given(sched=schedules, seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sample_is_subset_of_arrivals(self, sched, seed):
        s = TTBS(0.1, 20, 30, seed=seed)
        seen = set()
        for t, b in enumerate(sched):
            B = [(t, i) for i in range(b)]
            seen |= set(B)
            s.advance(B)
            assert set(s.sample()) <= seen


class TestBRSProperties:
    @given(sched=schedules, n=caps, seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_size_identity(self, sched, n, seed):
        s = BRS(n, seed=seed)
        total = 0
        for t, b in enumerate(sched):
            s.advance([(t, i) for i in range(b)])
            total += b
            assert len(s.sample()) == min(n, total)
            assert s.seen == total
