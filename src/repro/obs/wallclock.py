"""The wall-clock telemetry channel: real time and executor lanes.

The paper's guarantees are charged I/O rounds, and everything the
simulator *decides* is a function of those.  Wall time is the opposite
kind of number — it varies run to run, machine to machine — so it lives
in its own clearly-nondeterministic channel: this module is the only
place the observability stack reads a clock, and everything it stamps
(:attr:`Span.wall_start_ns` / :attr:`Span.wall_ns` / :attr:`Span.lane`,
:attr:`TraceRecorder.walls`) sits *beside* the deterministic record,
never inside it.  ``Span.to_dict``, ``IOStats``, ``OpCost`` and every
committed artifact stay bit-identical whether or not a clock is attached
(a tested property — see ``tests/obs/test_wall_separation.py``).

Lanes
-----

Spans are stamped with the *executor lane* that opened them, using the
``guarded()`` synchronization vocabulary the flow linter inventories
(see ``docs/static_analysis.md``): these are the units of concurrency
the executor split will schedule, so a wall-clock trace grouped by lane
is directly the future thread timeline.

==============  =====================================================
lane            who runs on it
==============  =====================================================
``import-time``  module-load work (registries sealed before workers)
``owner-lane``   a structure's owning thread — the default lane
``pool-lock``    buffer-pool maintenance (LRU order, flushes)
``disk-lane``    a per-disk executor thread (``disk-lane:<id>``)
``machine-op``   machine-serialized bookkeeping (span stack, faults)
==============  =====================================================

Declare the current thread's lane with the :func:`lane` context manager
(lanes nest; the innermost wins).  Threads that never declare one run on
``owner-lane``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

#: The lane taxonomy — the ``guarded()`` inventory of
#: ``repro.lint.flow`` (RACE2xx), in documentation order.
LANES: Tuple[str, ...] = (
    "import-time",
    "owner-lane",
    "pool-lock",
    "disk-lane",
    "machine-op",
)

#: Lane assumed for threads that never declared one.
DEFAULT_LANE = "owner-lane"

#: The monotonic nanosecond clock backing the channel.  Monotonic so
#: durations survive NTP slews; nanoseconds so sub-microsecond spans
#: (cache hits) stay resolvable.
DEFAULT_CLOCK: Callable[[], int] = time.perf_counter_ns


class _LaneState(threading.local):
    """Per-thread lane stack (thread-local: each executor thread declares
    its own lane without sharing)."""

    def __init__(self) -> None:
        self.stack = []


_lane_state = _LaneState()  # detlint: guarded(import-time) -- thread-local container; each thread mutates only its own .stack


def current_lane() -> str:
    """The innermost declared lane of the calling thread (or
    :data:`DEFAULT_LANE`)."""
    stack = _lane_state.stack
    return stack[-1] if stack else DEFAULT_LANE


class lane:
    """Declare the calling thread's executor lane for a block.

    ``name`` must come from :data:`LANES`; an optional ``tag`` suffixes
    it (``lane("disk-lane", tag=3)`` → ``"disk-lane:3"``) so per-disk
    executor threads stay distinguishable in the trace.

    >>> with lane("disk-lane", tag=2):
    ...     machine.read_blocks(addrs)   # spans stamp lane="disk-lane:2"
    """

    __slots__ = ("_label",)

    def __init__(self, name: str, *, tag: object = None) -> None:
        if name not in LANES:
            raise ValueError(
                f"unknown lane {name!r}; the inventory is {LANES}"
            )
        self._label = name if tag is None else f"{name}:{tag}"

    def __enter__(self) -> str:
        _lane_state.stack.append(self._label)
        return self._label

    def __exit__(self, exc_type, exc, tb) -> bool:
        _lane_state.stack.pop()
        return False


# -- enabling the channel -----------------------------------------------------


def enable_wall_clock(recorder, clock: Optional[Callable[[], int]] = None):
    """Attach the wall channel to a :class:`~repro.pdm.spans.SpanRecorder`
    or a :class:`~repro.pdm.trace.TraceRecorder`.

    The recorder keeps producing its deterministic record exactly as
    before; it additionally stamps real start/duration (and, for spans,
    the executor lane) on everything recorded from now on.  ``clock``
    defaults to :data:`DEFAULT_CLOCK` — inject a fake for tests.
    Returns the recorder.
    """
    if clock is None:
        clock = DEFAULT_CLOCK
    recorder.clock = clock
    if hasattr(recorder, "lane_of"):  # span recorders also take a lane
        recorder.lane_of = current_lane
        recorder.wall_origin_ns = clock()
    return recorder


def disable_wall_clock(recorder) -> None:
    """Detach the wall channel; already-stamped values are kept (they are
    data, not state), new records go back to deterministic-only."""
    recorder.clock = None
    if hasattr(recorder, "lane_of"):
        recorder.lane_of = None


def wall_enabled(recorder) -> bool:
    return getattr(recorder, "clock", None) is not None


# -- self-measured instrumentation overhead -----------------------------------


@dataclass(frozen=True)
class OverheadReport:
    """Wall cost of the always-on telemetry, measured on this machine.

    ``overhead_fraction`` is the fraction of per-op wall time the
    instrumented run spends on instrumentation (0.03 = 3%), a report-only
    number: on a shared host it swings too far to gate.  Both throughputs are
    best-of-``repeats`` over interleaved passes, so a background stall
    hits both sides rather than masquerading as overhead.
    """

    plain_ops_per_sec: float
    instrumented_ops_per_sec: float
    operations: int
    repeats: int

    @property
    def overhead_fraction(self) -> float:
        if self.plain_ops_per_sec <= 0:
            return 0.0
        frac = 1.0 - self.instrumented_ops_per_sec / self.plain_ops_per_sec
        return max(0.0, frac)

    def to_dict(self) -> dict:
        return {
            "plain_ops_per_sec": round(self.plain_ops_per_sec, 1),
            "instrumented_ops_per_sec": round(
                self.instrumented_ops_per_sec, 1
            ),
            "overhead_fraction": round(self.overhead_fraction, 4),
            "operations": self.operations,
            "repeats": self.repeats,
        }


def measure_overhead(
    plain: Callable[[], object],
    instrumented: Callable[[], object],
    *,
    operations: int,
    repeats: int = 5,
    clock: Optional[Callable[[], int]] = None,
) -> OverheadReport:
    """Best-of-``repeats`` interleaved A/B timing of one pass of
    ``plain`` vs one pass of ``instrumented`` (each covering
    ``operations`` operations).

    The self-measurement half of the "always-on, low-overhead" claim:
    the benchmark harness passes the same replay with telemetry off and
    on, and the resulting :attr:`~OverheadReport.overhead_fraction` is
    itself reported as a metric (``BENCH_latency.json``).
    """
    if clock is None:
        clock = DEFAULT_CLOCK
    best_plain = None
    best_inst = None
    for _ in range(repeats):
        t0 = clock()
        plain()
        dt = clock() - t0
        if best_plain is None or dt < best_plain:
            best_plain = dt
        t0 = clock()
        instrumented()
        dt = clock() - t0
        if best_inst is None or dt < best_inst:
            best_inst = dt
    scale = 1e9 * operations
    return OverheadReport(
        plain_ops_per_sec=scale / best_plain if best_plain else 0.0,
        instrumented_ops_per_sec=scale / best_inst if best_inst else 0.0,
        operations=operations,
        repeats=repeats,
    )
