"""Observability for the PDM simulator: metrics, bound monitors, exporters.

The span *primitive* lives in :mod:`repro.pdm.spans` (the machine layer must
never import upward); this package consumes recorded spans and machine
counters and turns them into:

* :mod:`repro.obs.metrics` — deterministic counters / gauges / fixed-bucket
  histograms (I/O rounds per op kind, blocks moved, utilization, memory
  peaks, bucket-load distributions);
* :mod:`repro.obs.monitors` — runtime checks of the paper's closed-form
  budgets (Lemma 3, Theorem 6, Theorem 7) against live span costs;
* :mod:`repro.obs.export` — JSON Lines, Chrome trace-event JSON (Perfetto),
  and plain-text table artefacts;
* :mod:`repro.obs.harness` — instrumented workload replay behind the
  ``python -m repro.obs`` CLI;
* :mod:`repro.obs.layers` — the one wall-time measurement: an
  outside-in tracer that wraps each layer's public functions while
  installed and splits each operation's real time by layer;
* :mod:`repro.obs.latency` — wall-latency histograms with p50/p95/p99
  (the always-on :class:`~repro.obs.latency.LatencyTracker`) and
  per-disk utilization timelines on the logical round clock.

Everything here is off the hot path: with no recorder attached, the
simulator pays a single ``is None`` check per operation, and nothing is
patched until a :class:`~repro.obs.layers.LayerTracer` installs itself.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    span_events,
    write_chrome_trace,
    write_jsonl,
    write_table_artifact,
)
from repro.obs.harness import ObsReport, report_events, run_instrumented
from repro.obs.latency import DiskTimeline, LatencyTracker, percentile_rows
from repro.obs.layers import LAYERS, LayerTracer, layer_totals
from repro.obs.metrics import (
    DEFAULT_IO_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_US,
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_load_distribution,
    collect_machine,
    collect_recovery,
    collect_spans,
)
from repro.obs.monitors import (
    BoundMonitor,
    BoundViolationError,
    MonitorSet,
    RecoveryMonitor,
    SpanBudgetMonitor,
    Violation,
    default_monitors,
    lemma3_load_monitor,
    theorem6_lookup_monitor,
    theorem7_lookup_monitor,
    theorem7_update_monitor,
)

__all__ = [
    "BoundMonitor",
    "BoundViolationError",
    "Counter",
    "DEFAULT_IO_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS_US",
    "DEFAULT_QUANTILES",
    "DiskTimeline",
    "Gauge",
    "Histogram",
    "LAYERS",
    "LatencyTracker",
    "LayerTracer",
    "MetricsRegistry",
    "MonitorSet",
    "ObsReport",
    "RecoveryMonitor",
    "SpanBudgetMonitor",
    "Violation",
    "chrome_trace",
    "chrome_trace_events",
    "collect_load_distribution",
    "collect_machine",
    "collect_recovery",
    "collect_spans",
    "default_monitors",
    "layer_totals",
    "lemma3_load_monitor",
    "percentile_rows",
    "report_events",
    "run_instrumented",
    "span_events",
    "theorem6_lookup_monitor",
    "theorem7_lookup_monitor",
    "theorem7_update_monitor",
    "write_chrome_trace",
    "write_jsonl",
    "write_table_artifact",
]
