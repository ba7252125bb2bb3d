"""Percentile, floor and spread arithmetic."""

import pytest

from routerbench import stats


def test_percentile_is_nearest_rank():
    values = [50, 10, 40, 20, 30]
    assert stats.percentile(values, 0.5) == 30
    assert stats.percentile(values, 0.2) == 10
    assert stats.percentile(values, 0.21) == 20
    assert stats.percentile(values, 1.0) == 50
    assert stats.percentile(values, 0.0) == 10


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_floor_leaves_ten_faster_windows_beyond_it():
    windows = list(range(1000, 0, -1))
    assert stats.floor(windows) == 20  # 2 % of 1000, so 19 are faster
    assert stats.floor([7.0, 5.0, 9.0]) == 5.0  # few samples: the minimum


def test_quartile_spread_is_a_share_of_the_median():
    values = [90, 95, 100, 105, 110, 100, 100, 100, 100, 100]
    assert stats.quartile_spread(values) == pytest.approx(0.025)
    assert stats.quartile_spread([5]) == 0.0
