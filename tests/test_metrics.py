import math

import pytest

from flowsketch.metrics import (
    UndefinedMetricError,
    entropy_of_values,
    f1_score,
    relative_error,
)


class TestRelativeError:
    def test_exact(self):
        assert relative_error(10, 10) == 0.0

    def test_overestimate(self):
        assert relative_error(10, 15) == 0.5

    def test_zero_estimate(self):
        assert relative_error(10, 0) == 1.0

    def test_zero_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            relative_error(0, 5)


class TestF1:
    def test_identical_sets(self):
        assert f1_score({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert f1_score({1, 2}, {3, 4}) == 0.0

    def test_half_precision_full_recall(self):
        assert f1_score({1}, {1, 2}) == pytest.approx(2 / 3)

    def test_empty_cases(self):
        assert f1_score(set(), {1}) == 0.0
        assert f1_score({1}, set()) == 0.0
        assert f1_score(set(), set()) == 1.0


class TestEntropy:
    def test_uniform(self):
        assert entropy_of_values([1, 2, 3, 4]) == pytest.approx(2.0)

    def test_constant(self):
        assert entropy_of_values([7, 7, 7]) == 0.0

    def test_two_thirds(self):
        expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
        assert entropy_of_values([2, 2, 4]) == pytest.approx(expected)

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            entropy_of_values([])

