"""Exporters: JSON Lines events, Chrome trace-event JSON, plain-text tables.

All output is deterministic: timestamps are *logical* (parallel I/O
rounds, the model's own clock — never the wall clock), dict keys are
written sorted, and every traversal is insertion-ordered.

The Chrome trace uses the `trace event format`_ with ``"X"`` (complete)
events so it loads directly in Perfetto / ``chrome://tracing``:

* process ``1`` ("operation spans") renders the span trees — one slice per
  span, laid out so that a slice's width is its *effective* cost in
  rounds, sequential children follow each other and parallel children
  overlap;
* process ``2`` ("disks") renders the per-disk timeline from a
  :class:`~repro.pdm.trace.TraceRecorder` — one track per disk, one slice
  per batched I/O, so stripe discipline (all disks busy every round) is
  visible at a glance.

Wall time never enters these exports: the layer tracer
(:mod:`repro.obs.layers`) measures it beside them, so a trace written
from a timed run is byte-identical to one from an untimed run.

.. _trace event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional

from repro.pdm.spans import Span, SpanRecorder

#: Chrome-trace microseconds per parallel I/O round.  Scaling up keeps
#: zero-cost bookkeeping spans visible (1 us) without distorting layout.
US_PER_ROUND = 1024


# -- JSON Lines ---------------------------------------------------------------


def span_events(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """One flat event per span (pre-order), with tree structure encoded as
    ``parent`` indices — convenient for line-oriented diffing."""
    events: List[Dict[str, Any]] = []

    def emit(node: Span, parent: Optional[int], depth: int) -> None:
        record = node.to_dict()
        record.pop("children")
        record["type"] = "span"
        record["parent"] = parent
        record["depth"] = depth
        events.append(record)
        for child in node.children:
            emit(child, node.index, depth + 1)

    for root in recorder.roots:
        emit(root, None, 0)
    return events


def write_jsonl(path, events: Iterable[Dict[str, Any]]) -> int:
    """Write events one JSON object per line; returns the event count."""
    path = pathlib.Path(path)
    count = 0
    with path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


# -- Chrome trace-event format ------------------------------------------------


def _span_slices(
    node: Span, start: int, out: List[Dict[str, Any]]
) -> int:
    """Lay out ``node`` at logical time ``start``; returns its duration.

    Durations derive from effective costs (so parallel phases render as
    overlap); a parent is stretched to contain its children, and zero-cost
    spans get 1 us so they stay clickable."""
    cursor = start
    child_extent = 0
    if node.mode == "parallel":
        for child in node.children:
            child_extent = max(child_extent, _span_slices(child, start, out))
    else:
        for child in node.children:
            cursor += _span_slices(child, cursor, out)
        child_extent = cursor - start
    dur = max(
        node.effective_cost.total_ios * US_PER_ROUND, child_extent, 1
    )
    out.append(
        {
            "name": node.name,
            "cat": "span",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": start,
            "dur": dur,
            "args": {
                "attrs": {k: repr(v) for k, v in sorted(node.attrs.items())},
                "read_ios": node.cost.read_ios,
                "write_ios": node.cost.write_ios,
                "blocks_read": node.cost.blocks_read,
                "blocks_written": node.cost.blocks_written,
                "effective_ios": node.effective_cost.total_ios,
                "mode": node.mode,
            },
        }
    )
    return dur


def chrome_trace_events(
    recorder: Optional[SpanRecorder] = None,
    tracer=None,
    *,
    num_disks: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from a span recorder and/or an I/O
    trace recorder."""
    events: List[Dict[str, Any]] = []
    if recorder is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "operation spans (ts in I/O rounds)"},
            }
        )
        cursor = 0
        for root in recorder.roots:
            cursor += _span_slices(root, cursor, events)
    if tracer is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "args": {"name": "disks (one track per disk)"},
            }
        )
        disks_seen: Dict[int, None] = {}
        clock = 0
        for ev in tracer.events:
            blocks_per_disk: Dict[int, int] = {}
            for disk_id, _idx in ev.addrs:
                blocks_per_disk[disk_id] = blocks_per_disk.get(disk_id, 0) + 1
                disks_seen.setdefault(disk_id, None)
            for disk_id, blocks in blocks_per_disk.items():
                events.append(
                    {
                        "name": ev.kind,
                        "cat": "io",
                        "ph": "X",
                        "pid": 2,
                        "tid": disk_id,
                        "ts": clock * US_PER_ROUND,
                        "dur": max(ev.rounds * US_PER_ROUND, 1),
                        "args": {"blocks": blocks, "rounds": ev.rounds},
                    }
                )
            clock += ev.rounds
        known = list(disks_seen) if num_disks is None else list(range(num_disks))
        for disk_id in known:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 2,
                    "tid": disk_id,
                    "args": {"name": f"disk {disk_id}"},
                }
            )
    return events


def chrome_trace(
    recorder: Optional[SpanRecorder] = None,
    tracer=None,
    *,
    num_disks: Optional[int] = None,
) -> Dict[str, Any]:
    """The full trace JSON object (``{"traceEvents": [...]}``)."""
    return {
        "traceEvents": chrome_trace_events(
            recorder, tracer, num_disks=num_disks
        ),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": f"logical: {US_PER_ROUND} us per parallel I/O round",
        },
    }


def write_chrome_trace(
    path,
    recorder: Optional[SpanRecorder] = None,
    tracer=None,
    *,
    num_disks: Optional[int] = None,
) -> pathlib.Path:
    path = pathlib.Path(path)
    with path.open("w") as fh:
        json.dump(
            chrome_trace(recorder, tracer, num_disks=num_disks),
            fh,
            sort_keys=True,
            indent=1,
        )
        fh.write("\n")
    return path


# -- plain-text tables (the legacy benchmark artefacts) -----------------------


def write_table_artifact(
    results_dir, name: str, text: str, *, sidecar: bool = True
) -> pathlib.Path:
    """Write a rendered benchmark table as ``<name>.txt`` plus (by default)
    a machine-readable ``<name>.json`` sidecar — the single path every
    benchmark table now flows through."""
    results_dir = pathlib.Path(results_dir)
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    if sidecar:
        record = {"name": name, "kind": "table", "lines": text.splitlines()}
        (results_dir / f"{name}.json").write_text(
            json.dumps(record, sort_keys=True, indent=1) + "\n"
        )
    return path
