"""Tests of the benchmark's timing helper.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import pytest

import stats


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_p99_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.tail_percentile(samples, 0.99) == 990
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(samples[:999], 0.99)


def test_tail_percentile_ignores_sample_order():
    samples = list(range(200, 0, -1))
    assert stats.tail_percentile(samples, 0.9) == 180


@pytest.mark.parametrize("q", [0, 1, 1.5])
def test_tail_percentile_rejects_q_outside_unit_interval(q):
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(5000)), q)


def test_summary_reports_median_quartiles_and_count():
    s = stats.Summary.of([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s.value, s.n) == (3.0, 5)
    assert (s.q1, s.q3) == (1.5, 4.5)
    one = stats.Summary.of([7.0])
    assert (one.value, one.q1, one.q3) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        stats.Summary.of([])


def test_run_passes_meets_both_the_count_and_the_time_budget():
    clock = FakeClock()
    events = []

    def setup():
        clock.now += 1.0
        events.append("setup")
        return len(events)

    def measure(state):
        clock.now += 2.0
        return state

    passes = stats.run_passes(
        setup, lambda s: events.append("warm"), measure,
        lambda s: events.append("close"),
        min_passes=2, seconds=7.5, clock=clock,
    )
    # 3 s per pass: two passes reach the count, three pass 7.5 s.
    assert len(passes) == 3
    assert [p.setup_s for p in passes] == [1.0, 1.0, 1.0]
    assert events[:3] == ["setup", "warm", "close"]
    assert stats.run_passes(
        setup, lambda s: None, measure, lambda s: None,
        min_passes=4, seconds=0, clock=clock,
    ).__len__() == 4


def test_run_passes_closes_a_failed_pass():
    closed = []

    def measure(state):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        stats.run_passes(
            lambda: "state", lambda s: None, measure, closed.append,
            min_passes=1, seconds=0,
        )
    assert closed == ["state"]
    with pytest.raises(ValueError):
        stats.run_passes(
            lambda: None, lambda s: None, lambda s: None, lambda s: None,
            min_passes=0, seconds=0,
        )


def test_fastest_takes_each_call_at_its_best_and_spread_from_each_pass():
    passes = [[5, 1, 9], [4, 2, 9], [6, 3, 1]]
    s = stats.fastest(passes, sum)
    # Fastest per call: 4, 1, 1.  Per-pass sums: 15, 15, 10.
    assert (s.value, s.n) == (6, 3)
    assert (s.q1, s.q3) == stats.quartiles([15, 15, 10]) == (10, 15)


def test_pooled_value_pools_passes_and_quartiles_come_from_each_pass():
    passes = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [100, 100, 100]]
    s = stats.pooled(passes, lambda xs: sorted(xs)[len(xs) // 2])
    assert (s.value, s.n) == (7, 12)
    # Per-pass medians 2, 5, 8 and 100.
    assert (s.q1, s.q3) == stats.quartiles([2, 5, 8, 100]) == (2.75, 77.0)


def test_pooled_tail_drops_quartiles_when_one_pass_is_too_small():
    passes = [list(range(600)), list(range(600))]

    def p99(xs):
        return stats.tail_percentile(xs, 0.99)

    s = stats.pooled(passes, p99)
    assert s.n == 1200 and s.value == 593
    assert s.q1 is None and s.q3 is None
    with pytest.raises(stats.TooFewSamples):
        stats.pooled([list(range(500))], p99)
