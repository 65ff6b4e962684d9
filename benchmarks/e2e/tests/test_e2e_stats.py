"""Median / quartile helper."""

import statistics

import pytest

from stats import summary


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    stats = summary(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats["median"] == q2 == 5.0
    assert (stats["q1"], stats["q3"]) == (q1, q3)
    assert (stats["min"], stats["max"], stats["n"]) == (1.0, 9.0, 7)


def test_single_value_is_its_own_quartiles():
    assert summary([4.2]) == {
        "median": 4.2, "q1": 4.2, "q3": 4.2, "min": 4.2, "max": 4.2, "n": 1,
    }


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        summary([])
