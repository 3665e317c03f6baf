"""Tests for the sliding-window baseline."""
import pytest

from repro.core.sliding import SlidingWindow


class TestSlidingWindow:
    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_keeps_last_n(self):
        w = SlidingWindow(5)
        w.advance([1, 2, 3, 4])
        w.advance([5, 6, 7])
        assert w.sample() == [3, 4, 5, 6, 7]

    def test_partial_fill(self):
        w = SlidingWindow(10)
        w.advance([1, 2, 3])
        assert w.sample() == [1, 2, 3]

    def test_all_or_nothing_forgetting(self):
        """Old items vanish completely — the brittleness R-TBS avoids."""
        w = SlidingWindow(4)
        w.advance(["old"] * 4)
        w.advance(["new"] * 4)
        assert "old" not in w.sample()

    def test_batch_larger_than_window(self):
        w = SlidingWindow(3)
        w.advance(list(range(10)))
        assert w.sample() == [7, 8, 9]
