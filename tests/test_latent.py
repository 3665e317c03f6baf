"""Tests for the latent fractional sample (Sec. 4.1, eqs. (2)-(3))."""
from collections import Counter

import numpy as np
import pytest

from repro.core.latent import LatentSample, ListReservoir, frac
from repro.rng import make_rng, sample_without_replacement


@pytest.fixture
def rng():
    return make_rng(99)


class TestFrac:
    @pytest.mark.parametrize(
        "x,expected", [(3.6, 0.6), (0.0, 0.0), (5.0, 0.0), (0.25, 0.25)]
    )
    def test_values(self, x, expected):
        assert abs(frac(x) - expected) < 1e-12


def _latent(full, partial=None, weight=0.0, rng=None):
    return LatentSample(ListReservoir(full, rng), partial=partial, weight=weight)


class TestInvariants:
    def test_empty_ok(self):
        _latent([]).check_invariants()

    def test_integral_weight_ok(self):
        _latent([1, 2, 3], weight=3.0).check_invariants()

    def test_fractional_weight_ok(self):
        _latent([1, 2, 3], partial=4, weight=3.6).check_invariants()

    def test_missing_partial_raises(self):
        with pytest.raises(AssertionError):
            _latent([1, 2, 3], weight=3.6).check_invariants()

    def test_spurious_partial_raises(self):
        with pytest.raises(AssertionError):
            _latent([1, 2, 3], partial=9, weight=3.0).check_invariants()

    def test_wrong_full_count_raises(self):
        with pytest.raises(AssertionError):
            _latent([1, 2], weight=3.0).check_invariants()

    def test_negative_weight_raises(self):
        with pytest.raises(AssertionError):
            _latent([], weight=-0.5).check_invariants()

    def test_float_noise_tolerated(self):
        # 3.9999999998 should be treated as 4 full items
        _latent([1, 2, 3, 4], weight=3.9999999998).check_invariants()


class TestFootprint:
    def test_no_partial(self):
        assert _latent([1, 2], weight=2.0).footprint == 2

    def test_with_partial(self):
        L = _latent([1, 2], partial=3, weight=2.5)
        assert L.footprint == 3

    def test_footprint_bound(self):
        # footprint <= floor(C) + 1 always (Sec. 4.1)
        L = _latent([1, 2, 3], partial=4, weight=3.6)
        assert L.footprint <= int(L.weight) + 1

    def test_items(self):
        L = _latent([1, 2], partial=3, weight=2.5)
        assert sorted(L.items()) == [1, 2, 3]
        L2 = _latent([1, 2], weight=2.0)
        assert sorted(L2.items()) == [1, 2]


class TestRealize:
    def test_integral_weight_deterministic(self, rng):
        L = _latent([1, 2, 3], weight=3.0)
        for _ in range(50):
            assert sorted(L.realize(rng)) == [1, 2, 3]

    def test_partial_inclusion_rate(self):
        # Pr[partial included] = frac(C) = 0.6 (eq. (2)); E[|S|] = C.
        L = _latent([1, 2, 3], partial=9, weight=3.6)
        rng = make_rng(4)
        sizes = [len(L.realize(rng)) for _ in range(20000)]
        assert set(sizes) == {3, 4}
        assert abs(np.mean(sizes) - 3.6) < 0.02

    def test_full_items_always_included(self, rng):
        L = _latent([1, 2], partial=3, weight=2.2)
        for _ in range(100):
            s = L.realize(rng)
            assert {1, 2} <= set(s)
            assert set(s) <= {1, 2, 3}


class TestSwapMove:
    """Swap1 and Move1 (Sec. 4.2) as Alg. 3 runs them: ``extract_one``,
    then ``insert_rows`` of the old partial for Swap1."""

    def test_swap1_exchanges(self, rng):
        A = ListReservoir([1, 2, 3], rng)
        partial = A.extract_one()
        A.insert_rows([9])
        assert partial in {1, 2, 3}
        assert 9 in A.items
        assert len(A) == 3

    def test_swap1_without_partial(self, rng):
        A = ListReservoir([1, 2, 3], rng)
        partial = A.extract_one()
        A.insert_rows([])
        assert partial in {1, 2, 3}
        assert len(A) == 2

    def test_move1_ejects_partial(self, rng):
        A = ListReservoir([1, 2, 3], rng)
        partial = A.extract_one()
        assert partial in {1, 2, 3}
        assert partial not in A.items
        assert len(A) == 2

    def test_swap1_uniform_choice(self):
        rng = make_rng(11)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(9000):
            A = ListReservoir([1, 2, 3], rng)
            counts[A.extract_one()] += 1
            A.insert_rows([9])
        for c in counts.values():
            assert abs(c / 9000 - 1 / 3) < 0.02


class TestListReservoir:
    def test_extract_one_with_duplicates(self):
        # Removal is by drawn index: one copy leaves, the others stay.
        for seed in range(20):
            A = ListReservoir([7, 7, 7, 8], make_rng(seed))
            got = A.extract_one()
            assert sorted(A.items + [got]) == [7, 7, 7, 8]
        assert ListReservoir([], make_rng(0)).extract_one() is None

    def test_extract_one_draws_one_index(self):
        A = ListReservoir(["a", "b", "c", "d"], make_rng(3))
        (i,) = make_rng(3).choice(4, size=1, replace=False)
        assert A.extract_one() == "abcd"[i]

    def test_keep_random_is_sample(self):
        items = list(range(10))
        for k in (0, 4, 10, 12):
            A = ListReservoir(items, make_rng(k))
            A.keep_random(k)
            assert A.items == sample_without_replacement(make_rng(k), items, k)
        # k == count still draws: the list comes back permuted.
        A = ListReservoir(items, make_rng(1))
        A.keep_random(10)
        assert sorted(A.items) == items and A.items != items

    def test_replace_random(self, rng):
        A = ListReservoir([0, 0, 1, 2, 3], rng)
        A.replace_random(2, ["x", "y", "z"], [3])
        assert len(A) == 5
        new = [x for x in A if isinstance(x, str)]
        assert len(new) == 2 and len(set(new)) == 2
        assert Counter(x for x in A if isinstance(x, int)) <= Counter([0, 0, 1, 2, 3])
        A.replace_random(0, ["w"], [1])
        assert "w" not in A.items

    def test_replace_random_uniform_victims(self):
        rng = make_rng(5)
        survived = {i: 0 for i in range(4)}
        for _ in range(8000):
            A = ListReservoir(range(4), rng)
            A.replace_random(1, ["new"], [1])
            for x in A:
                if x != "new":
                    survived[x] += 1
        for c in survived.values():
            assert abs(c / 8000 - 3 / 4) < 0.02

    def test_insert_all_and_clear(self, rng):
        A = ListReservoir([1], rng)
        A.insert_all([2, 3], [1, 1])
        assert A.items == [1, 2, 3] and A.count == 3
        A.clear()
        assert A.count == 0 and list(A) == []
