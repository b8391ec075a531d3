"""Outside-in layer tracer: spans around the public functions of each layer.

This is the repository's one wall-time measurement.  Nothing is patched
until a :class:`LayerTracer` installs itself: while installed it
replaces, on the class that defines it, each function named in
:data:`TARGETS` with a wrapper that records one span per call;
uninstalling puts the original function objects back.  With no tracer
installed the code under measurement is exactly the code that ships.

A span is ``(id, name, start_ns, end_ns, parent, call, thread, self_ns)``.
Each thread keeps its own stack, so a span's self time is its duration
minus the time its children on the same thread cover.  The client thread
drives the structure: every span it opens with an empty stack starts a
new call id.  Spans opened on other threads (the file executor's disk
lanes) take the client's innermost open span as parent; their time
counts as *busy* time, not self time, so client-thread self times alone
partition each root call's time.

Wall times are real time and vary run to run; nothing here feeds a
deterministic artifact.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, module, class, label, functions)``.  The span name is
#: ``layer[.label].function``; the label keeps the facade and the
#: dictionaries apart inside ``core``.  A batch entry point sits next to
#: the single-item name it grew from (``store_columns``/``store_column``,
#: ``get_many``/``get``): the batch paths call only the former, and the
#: benchmark's copy of this table still names the latter.
TARGETS: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("core", "repro.core.facade", "ParallelDiskDictionary", "facade",
     ("lookup", "insert", "batch_lookup", "batch_insert")),
    ("core", "repro.core.basic_dict", "BasicDictionary", "basic_dict",
     ("lookup", "insert", "upsert", "delete", "batch_lookup",
      "batch_insert", "batch_delete")),
    ("core", "repro.core.dynamic_dict", "DynamicDictionary", "dynamic_dict",
     ("lookup", "insert", "delete", "batch_lookup", "batch_insert",
      "batch_delete")),
    ("expanders", "repro.expanders.neighborhoods", "NeighborhoodMemo", "",
     ("striped", "batch_striped", "batch_local_indices")),
    ("kernels", "repro.kernels.base", "PythonKernel", "",
     ("plan_unique_probe", "store_column", "store_columns",
      "match_candidates")),
    ("kernels", "repro.kernels.numpy_backend", "NumpyKernel", "",
     ("plan_unique_probe", "store_column", "store_columns",
      "match_candidates")),
    ("striping", "repro.pdm.striping", "StripedItemBuckets", "",
     ("probe_plan", "read_buckets", "read_buckets_degraded",
      "write_buckets")),
    ("machine", "repro.pdm.machine", "AbstractDiskMachine", "",
     ("read_blocks", "read_planned_blocks", "read_blocks_degraded",
      "write_blocks")),
    ("block", "repro.pdm.block", "Block", "", ("verify",)),
    ("cache", "repro.pdm.cache", "BufferPool", "",
     ("get", "get_many", "fill", "put")),
    ("executors", "repro.pdm.executors.base", "SimulatedExecutor", "",
     ("run_read", "run_write")),
    ("executors", "repro.pdm.executors.filebacked", "FileExecutor", "",
     ("run_read", "run_write")),
    ("fs", "repro.fs.blockfile", "BlockLogFile", "",
     ("read_block", "append_many")),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

Span = Tuple[int, str, int, int, Optional[int], int, int, int]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class FunctionTotals:
    """Per span name: calls, client-thread self time, other-thread busy
    time."""

    __slots__ = ("calls", "self_ns", "busy_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.busy_ns = 0


class LayerTracer:
    """Records spans at the layer boundaries while installed.

    Install and uninstall from the client thread, the one that calls the
    structure.
    """

    def __init__(self) -> None:
        # Disk-lane threads append here while the client appends too; a
        # list append is one atomic step, and nothing reads the list
        # until the traced pass is over.
        self.spans: List[Span] = []  # detlint: guarded(disk-lane) -- append-only from every lane; read only after uninstall
        self._patches: List[Tuple[type, str, Any]] = []  # detlint: guarded(owner-lane) -- install/uninstall run on the client thread only
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_frames: List[List[int]] = []  # detlint: guarded(owner-lane) -- the client thread pushes and pops; disk lanes only read its top
        self._ids = itertools.count()
        self._call = 0

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._client = threading.get_ident()
        self._local.frames = self._client_frames
        for layer, module, cls_name, label, functions in TARGETS:
            cls = getattr(import_module(module), cls_name)
            for fn_name in functions:
                owner = next(k for k in cls.__mro__ if fn_name in k.__dict__)
                if any(o is owner and n == fn_name for o, n, _ in self._patches):
                    continue
                original = owner.__dict__[fn_name]
                span_name = ".".join(p for p in (layer, label, fn_name) if p)
                self._patches.append((owner, fn_name, original))
                setattr(owner, fn_name, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, fn_name, original = self._patches.pop()
            setattr(owner, fn_name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        client_frames = self._client_frames
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frames = getattr(local, "frames", None)
            if frames is None:
                frames = local.frames = []
            if frames:
                parent: Optional[int] = frames[-1][0]
            elif frames is client_frames:
                tracer._call += 1
                parent = None
            else:
                parent = client_frames[-1][0] if client_frames else None
            call = tracer._call
            frame = [next(ids), 0]
            frames.append(frame)
            start = clock()  # detlint: ignore[DET101] -- wall time is this tracer's output; no deterministic path reads spans
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()  # detlint: ignore[DET101] -- as above
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                spans.append((
                    frame[0], name, start, end, parent, call,
                    threading.get_ident(), duration - frame[1],
                ))

        return traced

    # -- results ------------------------------------------------------------

    def totals(self) -> Dict[str, FunctionTotals]:
        """Per span name totals over every recorded span."""
        out: Dict[str, FunctionTotals] = defaultdict(FunctionTotals)
        client = self._client
        for _, name, _, _, _, _, thread, self_ns in self.spans:
            t = out[name]
            t.calls += 1
            if thread == client:
                t.self_ns += self_ns
            else:
                t.busy_ns += self_ns
        return dict(out)


def layer_totals(
    tracer: LayerTracer,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per layer (every name in :data:`LAYERS`): client-thread self ns and
    other-thread busy ns, summed over the tracer's spans."""
    self_ns = dict.fromkeys(LAYERS, 0)
    busy_ns = dict.fromkeys(LAYERS, 0)
    for name, t in tracer.totals().items():
        self_ns[layer_of(name)] += t.self_ns
        busy_ns[layer_of(name)] += t.busy_ns
    return self_ns, busy_ns
