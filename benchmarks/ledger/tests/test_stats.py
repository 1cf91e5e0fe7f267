"""The percentile rule and the contract's spread."""

import statistics

import pytest

from ledger.stats import (
    TooFewSamples, high_percentile, median, quartile_spread,
    try_high_percentile,
)


def test_p90_is_refused_under_100_samples():
    with pytest.raises(TooFewSamples):
        high_percentile(list(range(99)), 90)
    assert try_high_percentile(list(range(99)), 90) is None


def test_p90_of_100_samples_leaves_ten_beyond_it():
    values = list(range(1, 101))
    p90 = high_percentile(values, 90)
    assert p90 == pytest.approx(90.1)
    assert sum(value > p90 for value in values) == 10


def test_p99_needs_a_thousand():
    assert try_high_percentile(list(range(999)), 99) is None
    assert try_high_percentile(list(range(1000)), 99) is not None


def test_high_percentile_is_for_the_tail():
    with pytest.raises(ValueError):
        high_percentile(list(range(200)), 50)


def test_median_of_nothing_is_refused():
    with pytest.raises(TooFewSamples):
        median([])
    assert median([3, 1, 2]) == 2


def test_quartile_spread_matches_the_contract_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / statistics.median(values)

