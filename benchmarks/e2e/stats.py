"""Timing statistics for the end-to-end benchmark.

Kept free of any ``repro`` import so it tests on its own:

* :func:`run_passes` — the measurement loop: each pass sets up, warms
  up untimed, then measures; passes repeat until both a minimum count and
  a wall-clock budget are met;
* :class:`Summary` — a metric's value, the quartiles of its per-pass
  values, and its sample count;
* :func:`fastest` — a statistic of each call's fastest time over the
  passes, and :func:`pooled` — a statistic of the samples of every pass
  pooled; both summarised with their per-pass spread;
* :func:`tail_percentile` — a tail percentile that refuses to answer
  from a sample too small to support it.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

#: A tail percentile is reported only with at least this many samples
#: beyond it (p99 therefore needs 1,000 samples).
MIN_BEYOND = 10

S = TypeVar("S")
R = TypeVar("R")


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """The first and third quartiles, as ``statistics.quantiles`` gives
    them; one value is its own quartiles."""
    if not values:
        raise ValueError("quartiles need at least one value")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass(frozen=True)
class Summary:
    """A metric's value, the quartiles of its values across passes, and
    the number of samples the value comes from.  The quartiles are
    ``None`` when a single pass is too small to give the metric."""

    value: float
    q1: Optional[float]
    q3: Optional[float]
    n: int

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Summary":
        """The median of ``samples`` with their quartiles."""
        if not samples:
            raise ValueError("a summary needs at least one sample")
        q1, q3 = quartiles(samples)
        return cls(statistics.median(samples), q1, q3, len(samples))


Statistic = Callable[[Sequence[float]], float]


def _per_pass_quartiles(
    per_pass: Sequence[Sequence[float]], statistic: Statistic
) -> Tuple[Optional[float], Optional[float]]:
    try:
        return quartiles([statistic(one) for one in per_pass])
    except TooFewSamples:
        return None, None


def fastest(per_pass: Sequence[Sequence[float]], statistic: Statistic) -> Summary:
    """``statistic`` of each call's fastest time over passes that replay
    the same calls in the same order, with the quartiles of its value on
    each pass alone.  Its sample count is the number of calls."""
    best = [min(times) for times in zip(*per_pass)]
    return Summary(
        statistic(best), *_per_pass_quartiles(per_pass, statistic), len(best)
    )


def pooled(per_pass: Sequence[Sequence[float]], statistic: Statistic) -> Summary:
    """``statistic`` of every pass's samples pooled, with the quartiles of
    its value on each pass alone.

    :class:`TooFewSamples` from the pooled samples propagates; from a
    single pass it only leaves the quartiles out.
    """
    samples = [x for one in per_pass for x in one]
    return Summary(
        statistic(samples), *_per_pass_quartiles(per_pass, statistic),
        len(samples),
    )


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``samples`` (``0 < q < 1``).

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie above the reported rank.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    n = len(samples)
    # Nearest rank, computed in integers so 0.99 * 1000 is exactly 990.
    scale = 10**9
    rank = max(1, -(-round(q * scale) * n // scale))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(n - rank, 0)}"
        )
    return sorted(samples)[rank - 1]


@dataclass(frozen=True)
class Pass(Generic[R]):
    """One pass: its set-up time and what its measurement returned."""

    setup_s: float
    result: R


def run_passes(
    setup: Callable[[], S],
    warm: Callable[[S], None],
    measure: Callable[[S], R],
    close: Callable[[S], None],
    *,
    min_passes: int,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Pass[R]]:
    """Run passes until ``min_passes`` are done and ``seconds`` have
    elapsed.

    Each pass times ``setup()``, runs ``warm`` untimed, collects garbage
    left by set-up and warm-up, then returns ``measure``'s result;
    ``close`` always runs.
    """
    if min_passes < 1:
        raise ValueError(f"min_passes must be at least 1, got {min_passes}")
    passes: List[Pass[R]] = []
    start = clock()
    while len(passes) < min_passes or clock() - start < seconds:
        t0 = clock()
        state = setup()
        setup_s = clock() - t0
        try:
            warm(state)
            gc.collect()
            result = measure(state)
        finally:
            close(state)
        passes.append(Pass(setup_s, result))
    return passes
