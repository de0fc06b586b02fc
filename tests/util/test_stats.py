"""Unit tests for repro.util.stats."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    RunningStats,
    coefficient_of_variation,
    percentile,
    summarize,
    union_time,
)


class TestRunningStats:
    def test_empty_mean_is_nan(self):
        assert math.isnan(RunningStats().mean)

    def test_single_value(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.minimum == 5.0 == s.maximum
        assert math.isnan(s.variance)

    def test_known_sample(self):
        s = RunningStats()
        s.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert s.mean == pytest.approx(5.0)
        assert s.stdev == pytest.approx(2.138, abs=1e-3)

    def test_min_max_track(self):
        s = RunningStats()
        s.extend([3, -1, 10])
        assert s.minimum == -1
        assert s.maximum == 10

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_matches_direct_computation(self, values):
        s = RunningStats()
        s.extend(values)
        mean = sum(values) / len(values)
        assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert s.variance == pytest.approx(var, rel=1e-6, abs=1e-4)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_element(self):
        assert percentile([7.0], 95) == 7.0

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.floats(0, 100),
    )
    def test_within_bounds(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


class TestSummarize:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.total == pytest.approx(10.0)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_single_value_zero_stdev(self):
        assert summarize([3.0]).stdev == 0.0


class TestCoefficientOfVariation:
    def test_uniform_sample_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_degenerate_nan(self):
        assert math.isnan(coefficient_of_variation([1.0]))
        assert math.isnan(coefficient_of_variation([0.0, 0.0]))

    def test_known_value(self):
        cv = coefficient_of_variation([8, 12])
        assert cv == pytest.approx(2.828 / 10.0, abs=1e-3)


class TestUnionTime:
    def test_union_merges_overlaps(self):
        assert union_time([(0, 4), (2, 6), (10, 11)]) == pytest.approx(7.0)

    def test_union_empty_zero(self):
        assert union_time([]) == 0.0

    def test_union_identical_intervals(self):
        assert union_time([(1, 3), (1, 3)]) == pytest.approx(2.0)

    def test_union_touching_intervals(self):
        assert union_time([(0, 2), (2, 5)]) == pytest.approx(5.0)

    def test_union_zero_length_intervals(self):
        assert union_time([(3, 3)]) == 0.0
        # A zero-length interval inside a covered range adds nothing.
        assert union_time([(3, 3), (0, 5), (2, 2)]) == pytest.approx(5.0)

    def test_union_identical_starts_different_ends(self):
        assert union_time([(1, 2), (1, 6), (1, 4)]) == pytest.approx(5.0)

    def test_union_zero_length_touching_nonzero(self):
        assert union_time([(2, 2), (2, 5)]) == pytest.approx(3.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 100)), max_size=30
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_free_and_bounded(self, pairs, rng):
        # Quarter-second grid: every sum below is exact in binary floats.
        intervals = [(start / 4, (start + length) / 4) for start, length in pairs]
        total = union_time(intervals)
        shuffled = list(intervals)
        rng.shuffle(shuffled)
        assert total == union_time(shuffled)
        assert total <= sum(end - start for start, end in intervals)
        assert total >= max((end - start for start, end in intervals), default=0.0)
        covered = {t for start, length in pairs for t in range(start, start + length)}
        assert total == len(covered) / 4
