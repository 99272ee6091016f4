import math

import pytest

from perf.stats import (
    best_of_rounds,
    beyond,
    max_ok_rate,
    nearest_rank,
    tail,
    timing_summary,
)


def test_nearest_rank_picks_an_observed_value():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 90.5) == 91
    assert nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize("n,q", [
    (19, 100.0),   # no ladder percentile has 10 samples beyond: max
    (39, 100.0),
    (40, 75.0),    # p75 of 40 leaves exactly 10 beyond
    (99, 75.0),
    (100, 90.0),   # p90 of 100 leaves exactly 10 beyond
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    values = [float(i) for i in range(n)]
    got_q, got = tail(values)
    assert got_q == q
    if q < 100.0:
        assert beyond(n, q) >= 10
        assert got == nearest_rank(values, q)
    else:
        assert got == max(values)


def test_failed_operations_are_infinitely_slow():
    summary = timing_summary([1.0] * 30 + [math.inf] * 10)
    assert summary["n"] == 40
    assert summary["p50"] == 1.0
    assert summary["tail_q"] == 75.0
    assert summary["tail"] == 1.0
    assert timing_summary([1.0] * 29 + [math.inf] * 11)["tail"] == math.inf


def test_best_of_rounds_keeps_each_programs_fastest():
    best = best_of_rounds([("a", 5.0), ("b", 2.0), ("a", 3.0),
                           ("b", math.inf), ("c", math.inf)])
    assert best == {"a": 3.0, "b": 2.0, "c": math.inf}


def _step(rate, p90_ms, offered, on_time):
    return {"rate": rate, "p90_ms": p90_ms, "offered": offered,
            "on_time": on_time}


def test_max_ok_rate_needs_latency_and_on_time_completion():
    steps = [_step(4, 600.0, 40, 40), _step(16, 1900.0, 100, 96),
             _step(32, 2500.0, 200, 200)]
    assert max_ok_rate(steps) == 16
    # 94% on time fails the step even with a good p90.
    steps[1] = _step(16, 1900.0, 100, 94)
    assert max_ok_rate(steps) == 4
    # The limit is inclusive.
    steps[2] = _step(32, 2000.0, 200, 190)
    assert max_ok_rate(steps) == 32
    assert max_ok_rate([_step(4, math.inf, 10, 0)]) == 0.0
    assert max_ok_rate([_step(4, 1.0, 0, 0)]) == 0.0
