"""The one-``None``-check contract, counted rather than timed.

With no recorder attached, nothing may call into :mod:`repro.obs`,
:mod:`repro.pdm.trace` or a :class:`~repro.pdm.spans.SpanRecorder`;
structures open a :class:`~repro.pdm.spans.span` on every operation, so
its ``__init__``/``__enter__``/``__exit__`` are the only calls allowed.
``sys.setprofile`` counts repeat exactly on any host, where a wall-clock
overhead fraction on a shared runner does not.
"""

import sys
from collections import Counter

from repro.core.basic_dict import BasicDictionary
from repro.obs.latency import LatencyTracker
from repro.pdm import trace
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans, span

U = 1 << 16
SPAN_CALLS = ("__init__", "__enter__", "__exit__")
WATCHED = {"obs": "/repro/obs/", "trace": "/repro/pdm/trace.py",
           "spans": "/repro/pdm/spans.py"}


def profiled_calls(fn):
    """``Counter`` of ``(module, function, self type)`` over every
    Python-level call into the observability modules while ``fn`` runs."""
    calls = Counter()

    def profile(frame, event, arg):
        path = frame.f_code.co_filename.replace("\\", "/")
        for where, part in WATCHED.items():
            if event == "call" and part in path:
                owner = type(frame.f_locals.get("self")).__name__
                calls[where, frame.f_code.co_name, owner] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def workload(machine):
    d = BasicDictionary(machine, universe_size=U, capacity=256, degree=16,
                        seed=3)

    def run():
        d.batch_insert([(k * 131 % U, k) for k in range(64)])
        for k in range(64, 96):
            d.insert(k * 131 % U, k)
        for k in range(0, 128, 3):
            d.lookup(k * 131 % U)
        d.batch_lookup([k * 131 % U for k in range(0, 128, 2)])

    return run


def test_detached_machine_calls_only_the_span_context_manager():
    calls = profiled_calls(workload(ParallelDiskMachine(16, 32)))
    unexpected = {
        key: n for key, n in calls.items()
        if key[0] != "spans" or key[1] not in SPAN_CALLS
        or key[2] != span.__name__
    }
    assert unexpected == {}
    counts = {calls["spans", name, span.__name__] for name in SPAN_CALLS}
    assert len(counts) == 1 and counts.pop() > 0


def test_attached_recorders_are_called():
    machine = ParallelDiskMachine(16, 32)
    run = workload(machine)
    attach_spans(machine)
    trace.attach(machine)
    calls = profiled_calls(run)
    assert calls["spans", "enter", "SpanRecorder"] > 0
    assert calls["spans", "exit", "SpanRecorder"] > 0
    assert calls["trace", "record", "TraceRecorder"] > 0


def test_tracker_steady_state_is_three_calls():
    tracker = LatencyTracker()
    tracker.stop_ns("lookup", tracker.start())

    def timed():
        tracker.stop_ns("lookup", tracker.start())

    calls = profiled_calls(timed)
    assert sorted((name, n) for (_, name, _), n in calls.items()) == [
        ("observe_ns", 1), ("start", 1), ("stop_ns", 1),
    ]
