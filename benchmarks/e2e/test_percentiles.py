"""The tail-percentile rule and the compare verdicts."""

import pytest

from compare import gain, verdict
from percentiles import nearest_rank, quartiles, tail_or_max, tail_percentile


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990, 1000)
    # one sample fewer leaves nine beyond the p99 rank: fall back to p95
    assert tail_percentile(values[:999]) == (95.0, 950, 999)


def test_highest_qualifying_percentile_for_small_samples():
    assert tail_percentile(list(range(1, 21))) == (50.0, 10, 20)
    assert tail_percentile(list(range(1, 11))) is None
    assert tail_or_max([3.0, 1.0, 2.0]) == 3.0


def test_nearest_rank_is_order_independent_of_input():
    ordered = sorted([5.0, 1.0, 4.0, 2.0, 3.0])
    assert nearest_rank(ordered, 5000) == 3.0
    assert nearest_rank(ordered, 10000) == 5.0
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("change, expected", [
    ([10.0, 10.1, 9.9, 10.0], "ok"),
    ([12.0, 12.1, 11.9, 12.0], "worse"),
    ([5.0, 15.0, 10.0, 10.0], "unresolved"),
    ([8.0, 8.1, 7.9, 8.0], "ok"),
])
def test_verdict_against_a_ten_percent_bound(change, expected):
    parent = [10.0, 10.2, 9.8, 10.0]
    assert verdict(parent, change, "lower", 0.10) == expected


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [10.0, 14.0, 12.0, 16.0]
    assert verdict(parent, [5.0, 6.0, 7.0, 8.0], "lower", 0.10) == "ok"
    assert verdict(parent, [11.0, 20.0], "lower", None) == "-"


def test_win_rate_rule():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [9.0 + 0.01 * i for i in range(10)]
    pairs = list(zip(parent, faster))
    assert gain(parent, faster, pairs, "lower") == "yes"
    assert gain(parent, faster, pairs[:9], "lower") == "-"
    # one tie and one loss in ten pairs: 8/10 wins is below nine tenths
    mixed = faster[:8] + [parent[8], parent[9] + 1]
    assert gain(parent, mixed, list(zip(parent, mixed)), "lower") == "no"
