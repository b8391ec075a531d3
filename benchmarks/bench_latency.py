"""Wall-clock latency: percentiles per op class and layer, disk
utilization, and the cost of measuring it.

Charged I/O rounds are the paper's currency, but a serving deployment
(Section 1.2's webmail workload) also cares how long an operation takes
on a real clock, and *which layer* the time went to — buffer-pool hit,
charged fetch, or fault-retry detour.  This benchmark replays a mixed
workload with the wall channel enabled and reports:

* p50/p95/p99/max wall latency per operation class (``lookup`` /
  ``upsert`` / ``delete``) and per serving layer (``cache-hit`` /
  ``cache-miss`` / ``fault-retry`` / ``uncached`` / ``kernel``);
* the per-stage split of the vectorized batch kernels
  (``kernel.neighborhoods`` / ``kernel.plan`` / ``kernel.match``) from a
  batched replay — where the wall time of a round-packed batched lookup
  actually goes;
* per-disk busy/idle utilization from the traced I/O schedule;
* the self-measured overhead of the always-on
  :class:`~repro.obs.latency.LatencyTracker` — interleaved best-of-N
  instrumented vs plain passes (a report: on a shared host it swings too
  far to gate; ``tests/obs/test_detached_cost.py`` counts calls instead).

Outputs ``benchmarks/results/BENCH_latency.json`` and ``latency.txt``.
All latency *values* are machine-dependent; the *schema* (bucket bounds,
label sets) is fixed so runs line up metric-for-metric.
"""

from __future__ import annotations

import json
import random

from repro.analysis.reporting import render_table
from repro.core.basic_dict import BasicDictionary
from repro.obs.latency import (
    DiskTimeline,
    LatencyTracker,
    collect_latency,
)
from repro.obs.harness import run_instrumented
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.wallclock import measure_overhead
from repro.pdm.faults import StragglerWindow, attach_faults
from repro.pdm.machine import ParallelDiskMachine

U = 1 << 20
D = 16
B = 32
OPERATIONS = 1024
CACHE_BLOCKS = 256
#: lookups replayed under a transient-fault window (fault-retry layer)
FAULT_LOOKUPS = 64
#: operations replayed through the round-packed batch methods (kernel layer)
BATCH_OPERATIONS = 256
#: keys per batched call in the kernel phase
BATCH_SIZE = 64
#: sequential lookups per overhead pass
OVERHEAD_OPS = 2048


def _family_summary(registry: MetricsRegistry, name: str, label_key: str):
    """``{label: {"count", "p50", "p95", "p99", "max"}}`` for one
    latency-histogram family, in first-observation order."""
    out = {}
    for metric_name, labels, metric in registry.items():
        if metric_name != name or not isinstance(metric, Histogram):
            continue
        entry = {"count": metric.total}
        entry.update(
            {k: round(v, 2) for k, v in metric.percentiles().items()}
        )
        entry["max"] = round(metric.max, 2)
        out[labels[label_key]] = entry
    return out


def _measure_tracker_overhead():
    """Plain vs LatencyTracker-wrapped sequential lookups on an
    uninstrumented machine (the always-on serving configuration)."""
    machine = ParallelDiskMachine(D, B)
    d = BasicDictionary(
        machine, universe_size=U, capacity=4096, degree=D, seed=9
    )
    keys = random.Random(9).sample(range(U), 4096)
    for k in keys:
        d.insert(k, None)
    stream = random.Random(10).choices(keys, k=OVERHEAD_OPS)
    for k in stream:  # warm the neighborhood memo before timing
        d.lookup(k)
    tracker = LatencyTracker()

    def plain():
        for k in stream:
            d.lookup(k)

    def instrumented():
        for k in stream:
            t0 = tracker.start()
            d.lookup(k)
            tracker.stop_ns("lookup", t0)

    report = measure_overhead(
        plain, instrumented, operations=len(stream)
    )
    return report, tracker


def test_latency_report(benchmark, save_table, results_dir):
    # One instrumented run with the wall channel on: cached (so hit and
    # miss layers both appear), traced (so the disk timeline exists).
    report = run_instrumented(
        "basic",
        num_disks=D,
        block_items=B,
        universe_size=U,
        operations=OPERATIONS,
        trace=True,
        wall=True,
        cache_blocks=CACHE_BLOCKS,
    )
    assert report.ok

    # Fault phase on a second, *uncached* run (a pool would absorb the
    # reads and no straggler round would ever be charged): a straggler
    # window over disk 0 taxes every batch touching it, so the
    # fault-retry layer has real latency mass — and stragglers always
    # answer, so no degraded lookups.
    fault_report = run_instrumented(
        "basic",
        num_disks=D,
        block_items=B,
        universe_size=U,
        operations=FAULT_LOOKUPS,
        wall=True,
    )
    attach_faults(
        fault_report.machine,
        [StragglerWindow(disk=0, start=0, end=1 << 30)],
    )
    hot = random.Random(11).sample(range(U), FAULT_LOOKUPS)
    for k in hot:
        fault_report.dictionary.lookup(k)

    # Batched phase on a third, uncached run: ``batch=N`` routes runs of
    # same-kind operations through the round-packed batch methods, whose
    # vectorized fast path opens ``kernel.*`` child spans — the "kernel"
    # latency layer and the per-stage ``latency.kernel_us`` family.
    batch_report = run_instrumented(
        "basic",
        num_disks=D,
        block_items=B,
        universe_size=U,
        operations=BATCH_OPERATIONS,
        wall=True,
        batch=BATCH_SIZE,
    )
    assert batch_report.ok

    wall_registry = MetricsRegistry()
    attributed = collect_latency(wall_registry, report.recorder)
    attributed += collect_latency(wall_registry, fault_report.recorder)
    attributed += collect_latency(wall_registry, batch_report.recorder)
    assert attributed >= OPERATIONS + FAULT_LOOKUPS

    timeline = DiskTimeline.from_tracer(report.tracer, D)
    assert timeline.total_rounds > 0

    overhead, tracker = _measure_tracker_overhead()
    assert tracker.operations == OVERHEAD_OPS * overhead.repeats
    # Loose sanity only: the wall fraction is report-only, and the
    # no-recorder cost is gated by call counts in
    # tests/obs/test_detached_cost.py.
    assert overhead.overhead_fraction < 0.50

    op_classes = _family_summary(wall_registry, "latency.op_us", "op")
    layers = _family_summary(wall_registry, "latency.layer_us", "layer")
    lanes = _family_summary(wall_registry, "latency.lane_us", "lane")
    kernel_stages = _family_summary(
        wall_registry, "latency.kernel_us", "stage"
    )
    assert "lookup" in op_classes
    assert "fault-retry" in layers and "cache-hit" in layers
    assert "kernel" in layers and "plan" in kernel_stages

    payload = {
        "benchmark": "latency",
        "config": {
            "num_disks": D,
            "block_items": B,
            "operations": OPERATIONS,
            "cache_blocks": CACHE_BLOCKS,
            "fault_lookups": FAULT_LOOKUPS,
            "batch_operations": BATCH_OPERATIONS,
            "batch_size": BATCH_SIZE,
            "overhead_operations": OVERHEAD_OPS,
        },
        "op_classes": op_classes,
        "layers": layers,
        "lanes": lanes,
        "kernel_stages": kernel_stages,
        "disks": timeline.to_dict(),
        "overhead": overhead.to_dict(),
    }
    out = results_dir / "BENCH_latency.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [
        [label, e["count"], e["p50"], e["p95"], e["p99"], e["max"]]
        for label, e in (
            list(op_classes.items())
            + list(layers.items())
            + [(f"kernel.{s}", e) for s, e in kernel_stages.items()]
        )
    ]
    table = render_table(
        ["class/layer", "count", "p50 us", "p95 us", "p99 us", "max us"],
        rows,
    )
    table += "\n" + render_table(
        ["disk", "busy", "idle", "utilization"], timeline.summary_rows()
    )
    table += (
        f"\ntracker overhead: {overhead.overhead_fraction:.2%} "
        f"({overhead.instrumented_ops_per_sec:,.0f} vs "
        f"{overhead.plain_ops_per_sec:,.0f} ops/sec)"
    )
    save_table("latency", table)

    tracker2 = LatencyTracker()
    benchmark.pedantic(
        lambda: tracker2.stop_ns("lookup", tracker2.start()),
        rounds=5,
        iterations=1000,
    )
