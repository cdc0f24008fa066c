import pytest

import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(reversed(values), 0.9) == 90
    assert stats.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "n, beyond, resolved",
    [(18, 1, False), (99, 9, False), (100, 10, True), (101, 10, True), (1000, 100, True)],
)
def test_p90_needs_ten_samples_beyond(n, beyond, resolved):
    assert stats.samples_beyond(n, 0.9) == beyond
    assert stats.resolved(n, 0.9) is resolved


def test_p50_rule_on_small_samples():
    assert stats.samples_beyond(20, 0.5) == 10
    assert stats.resolved(20, 0.5)
    assert not stats.resolved(19, 0.5)

