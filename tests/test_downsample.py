"""Tests for Algorithm 3 (downsampling) — structure and Theorem 4.1."""
import math

import numpy as np
import pytest

from repro.core.downsample import downsample
from repro.core.latent import EPS, LatentSample, ListReservoir
from repro.rng import make_rng


def _make_latent(C: float, rng) -> LatentSample:
    """A latent sample of weight C over items 0..⌈C⌉-1 (partial = last)
    whose reservoir draws from ``rng``."""
    k = math.floor(C + 1e-9)
    full = ListReservoir(range(k), rng)
    partial = k if C - k > 1e-9 else None
    return LatentSample(full, partial=partial, weight=C)


GRID = [
    # (C, C') covering all four pseudocode cases
    (3.0, 0.5),    # case 1, no existing partial
    (2.6, 0.4),    # case 1, with partial
    (0.8, 0.3),    # case 1, A empty
    (4.7, 4.2),    # case 2 (no deletions)
    (4.7, 4.0),    # case 2, integral target
    (5.0, 3.0),    # case 3, integral -> integral
    (5.0, 3.4),    # case 3, no partial in input
    (5.5, 3.2),    # case 3, partial in input
    (5.5, 3.0),    # case 3, integral target with partial input
    (2.5, 1.5),    # case 3 boundary: small sample
    (10.3, 1.7),   # big drop
    (1.9, 1.2),    # case 2 at minimum size
]


class TestStructure:
    @pytest.mark.parametrize("C,Cp", GRID)
    def test_postconditions(self, C, Cp):
        rng = make_rng(hash((C, Cp)) % 2**32)
        for _ in range(200):
            L = _make_latent(C, rng)
            downsample(L, Cp, rng)
            L.check_invariants()
            assert abs(L.weight - Cp) < 1e-9
            assert L.footprint <= math.floor(Cp + 1e-9) + 1

    @pytest.mark.parametrize("C,Cp", GRID)
    def test_items_come_from_input(self, C, Cp):
        rng = make_rng(0)
        L = _make_latent(C, rng)
        before = set(L.items())
        downsample(L, Cp, rng)
        assert set(L.items()) <= before

    def test_bad_target_raises(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            downsample(_make_latent(3.0, rng), 0.0, rng)
        with pytest.raises(ValueError):
            downsample(_make_latent(3.0, rng), 3.5, rng)
        with pytest.raises(ValueError):
            downsample(_make_latent(3.0, rng), -1.0, rng)

    def test_integral_target_clears_partial(self):
        rng = make_rng(3)
        for _ in range(100):
            L = _make_latent(4.7, rng)
            downsample(L, 3.0, rng)
            assert L.partial is None
            assert len(L.full) == 3


class TestNoOp:
    @pytest.mark.parametrize("C", [3.0, 4.7, 0.8])
    @pytest.mark.parametrize("shift", [0.0, EPS / 2])
    def test_target_within_eps_of_C(self, C, shift):
        """C' ∈ {C, C − EPS/2} sets C = C' and touches neither the items
        nor the random stream."""
        rng = make_rng(5)
        L = _make_latent(C, rng)
        items, partial = list(L.full.items), L.partial
        state = rng.bit_generator.state
        downsample(L, C - shift, rng)
        assert L.full.items == items and L.partial == partial
        assert L.weight == C - shift
        assert rng.bit_generator.state == state


class TestTheorem41:
    """Pr[i ∈ S'] = (C'/C)·Pr[i ∈ S] for every input item i."""

    @pytest.mark.parametrize("C,Cp", GRID)
    def test_scaling(self, C, Cp):
        rng = make_rng([round(C * 1000), round(Cp * 1000), 41])
        trials = 6000
        k = math.floor(C + 1e-9)
        items = list(range(k + (1 if C - k > 1e-9 else 0)))
        counts = {i: 0 for i in items}
        for _ in range(trials):
            L = _make_latent(C, rng)
            downsample(L, Cp, rng)
            for i in L.realize(rng):
                counts[i] += 1
        for i in items:
            p_before = 1.0 if i < k else (C - k)  # full vs partial item
            expect = (Cp / C) * p_before
            emp = counts[i] / trials
            se = math.sqrt(max(expect * (1 - expect), 1e-4) / trials)
            assert abs(emp - expect) < 5 * se + 5e-3, (
                f"item {i}: theory {expect:.4f}, got {emp:.4f} (C={C}, C'={Cp})"
            )

    def test_expected_size_is_target(self):
        rng = make_rng(77)
        for C, Cp in [(5.5, 3.2), (4.7, 4.2), (3.0, 0.5)]:
            sizes = []
            for _ in range(8000):
                L = _make_latent(C, rng)
                downsample(L, Cp, rng)
                sizes.append(len(L.realize(rng)))
            assert abs(np.mean(sizes) - Cp) < 0.05, (C, Cp)
