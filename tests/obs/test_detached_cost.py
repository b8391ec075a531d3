"""The one-``None``-check contract, counted rather than timed.

With no recorder attached, nothing may call into :mod:`repro.obs`,
:mod:`repro.pdm.trace` or a :class:`~repro.pdm.spans.SpanRecorder`;
structures open a :class:`~repro.pdm.spans.span` on every operation, so
its ``__init__``/``__enter__``/``__exit__`` are the only calls allowed.
``sys.setprofile`` counts repeat exactly on any host, where a wall-clock
overhead fraction on a shared runner does not.  The layer tracer
(:mod:`repro.obs.layers`) patches nothing until it is installed, so
importing :mod:`repro.obs` leaves every function it can wrap untouched.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter

from repro.core.basic_dict import BasicDictionary
from repro.obs.latency import LatencyTracker
from repro.pdm import trace
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans, span

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))
LAYERS_PY = os.path.join(SRC, "repro", "obs", "layers.py")
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


def test_importing_obs_patches_no_tracer_target():
    # A fresh interpreter, so the imports below really run.
    script = textwrap.dedent("""
        import importlib.util
        import sys
        from importlib import import_module

        # Read the table without importing the repro.obs package.
        spec = importlib.util.spec_from_file_location("table", LAYERS_PY)
        table = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(table)

        def functions():
            out = {}
            for _layer, module, cls_name, _label, names in table.TARGETS:
                cls = getattr(import_module(module), cls_name)
                for name in names:
                    owner = next(k for k in cls.__mro__ if name in k.__dict__)
                    out[owner, name] = owner.__dict__[name]
            return out

        before = functions()
        assert "repro.obs" not in sys.modules
        import repro.obs
        import repro.obs.layers
        after = functions()
        assert before and list(after) == list(before)
        changed = [name for key, name in before if after[key, name]
                   is not before[key, name]]
        assert changed == [], changed
        assert not any(hasattr(fn, "__wrapped__") for fn in after.values())
        print(len(before))
    """).replace("LAYERS_PY", repr(LAYERS_PY))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
