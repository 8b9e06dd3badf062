"""Unit tests for the statistics helpers."""

import pytest

from repro.analysis.stats import (confidence_interval_95,
                                  mean, p99, percentile,
                                  relative_difference_percent, sample_std)
from repro.errors import ConfigurationError


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_sample_std(self):
        assert sample_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == \
            pytest.approx(2.138, abs=1e-3)

    def test_sample_std_single_value(self):
        assert sample_std([5.0]) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_matches_numpy(self):
        import numpy as np
        rng = np.random.default_rng(0)
        values = list(rng.uniform(0, 10, 101))
        for q in (1, 25, 50, 75, 99):
            assert percentile(values, q) == \
                pytest.approx(float(np.percentile(values, q)))

    def test_p99(self):
        values = list(range(1, 101))
        assert p99(values) == pytest.approx(99.01)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)


class TestConfidenceInterval:
    def test_single_sample_has_zero_width(self):
        ci = confidence_interval_95([4.0])
        assert ci.mean == 4.0
        assert ci.half_width == 0.0

    def test_contains_mean(self):
        ci = confidence_interval_95([1.0, 2.0, 3.0])
        assert ci.low <= 2.0 <= ci.high

    def test_uses_student_t_for_small_n(self):
        # n=2, std = sqrt(0.5)... known t(1, .975) = 12.7062
        ci = confidence_interval_95([0.0, 1.0])
        expected = 12.7062 * sample_std([0.0, 1.0]) / (2 ** 0.5)
        assert ci.half_width == pytest.approx(expected, rel=1e-4)

    def test_width_shrinks_with_n(self):
        narrow = confidence_interval_95([1.0, 2.0] * 10)
        wide = confidence_interval_95([1.0, 2.0])
        assert narrow.half_width < wide.half_width

    def test_str(self):
        assert "±" in str(confidence_interval_95([1.0, 2.0]))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            confidence_interval_95([])


class TestRelativeDifference:
    def test_figure6_metric(self):
        # (RFI - CubeFit) / CubeFit * 100
        assert relative_difference_percent(130.0, 100.0) == pytest.approx(30.0)

    def test_negative_when_candidate_worse(self):
        assert relative_difference_percent(90.0, 100.0) == pytest.approx(-10.0)

    def test_zero_candidate_rejected(self):
        with pytest.raises(ConfigurationError):
            relative_difference_percent(10.0, 0.0)
