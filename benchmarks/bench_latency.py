"""Wall-clock latency: percentiles per op class, time per layer, kernel
stages and disk utilization.

Charged I/O rounds are the paper's currency, but a serving deployment
(Section 1.2's webmail workload) also cares how long an operation takes
on a real clock, and *which layer* the time went to.  This benchmark
replays mixed workloads under the layer tracer (:mod:`repro.obs.layers`,
``run_instrumented(wall=True)``) and reports:

* p50/p95/p99/max wall latency per operation class (``lookup`` /
  ``insert`` / ``delete`` from a cached scalar replay on the file
  executor, ``batch_*`` from a batched one), from the tracer's root-call
  durations;
* client-thread self time per layer (µs/op and share of the replay,
  with the unattributed remainder) and the ``fs`` lane busy share: the
  time the file executor's disk-lane threads spend in the block logs;
* the kernel stages of the batched replay: self time of each
  ``kernels.*`` function — where the wall time of a round-packed batched
  lookup goes inside the flat-array kernels;
* per-disk busy/idle utilization from the traced I/O schedule.

Outputs ``benchmarks/results/BENCH_latency.json`` and ``latency.txt``.
All latency *values* are machine-dependent; the *schema* (bucket bounds,
label sets) is fixed so runs line up metric-for-metric.  The cost of the
telemetry with nothing attached is pinned by call counts in
``tests/obs/test_detached_cost.py``, not timed here.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.reporting import render_table
from repro.obs.harness import run_instrumented
from repro.obs.latency import LatencyTracker
from repro.obs.layers import layer_totals
from repro.obs.metrics import Histogram

U = 1 << 20
D = 16
B = 32
OPERATIONS = 1024
CACHE_BLOCKS = 256
#: operations replayed through the round-packed batch methods (kernel layer)
BATCH_OPERATIONS = 256
#: keys per batched call in the kernel phase
BATCH_SIZE = 64


def _op_summary(report):
    """``{op: {"count", "p50", "p95", "p99", "max"}}`` from one timed
    report's per-op latency histograms."""
    out = {}
    for _, labels, metric in report.wall_registry.items():
        if not isinstance(metric, Histogram):
            continue
        entry = {"count": metric.total}
        entry.update(
            {k: round(v, 2) for k, v in metric.percentiles().items()}
        )
        entry["max"] = round(metric.max, 2)
        out[labels["op"]] = entry
    return out


def _layer_summary(report):
    """``{layer: {"self_us_per_op", "self_share"}}``, unattributed last."""
    return {
        layer: {"self_us_per_op": round(us, 3), "self_share": round(share, 4)}
        for layer, us, share in report.layer_rows()
    }


def _kernel_stages(report):
    """``{kernels.<function>: {"calls", "self_us_per_op"}}`` of one timed
    report."""
    ops = report.summary.operations
    return {
        name: {"calls": t.calls,
               "self_us_per_op": round(t.self_ns / ops / 1e3, 3)}
        for name, t in sorted(report.layers.totals().items())
        if name.startswith("kernels.")
    }


def test_latency_report(benchmark, save_table, results_dir, tmp_path):
    # Cached (so the pool's layer has time to show), traced (so the disk
    # timeline exists: wall=True implies I/O tracing) and file-backed (so
    # the fs layer and its disk lanes do real reads and appends).
    report = run_instrumented(
        "basic",
        num_disks=D,
        block_items=B,
        universe_size=U,
        operations=OPERATIONS,
        wall=True,
        cache_blocks=CACHE_BLOCKS,
        executor="file",
        executor_dir=str(tmp_path / "disks"),
    )
    report.machine.close()
    assert report.ok

    # Batched, uncached: ``batch=N`` routes runs of same-kind operations
    # through the round-packed batch methods, whose vectorized path runs
    # the flat-array kernels.
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

    op_classes = _op_summary(report)
    op_classes.update(_op_summary(batch_report))
    assert "lookup" in op_classes and "batch_lookup" in op_classes
    assert (
        sum(e["count"] for e in op_classes.values())
        == OPERATIONS + batch_report.summary.batches
    )

    assert sum(share for _, _, share in report.layer_rows()) == (
        pytest.approx(1.0)
    )
    layers = _layer_summary(report)
    _, busy_ns = layer_totals(report.layers)
    fs_busy_share = busy_ns["fs"] / report.replay_ns
    assert fs_busy_share > 0, "the file executor's disk lanes never ran"

    kernel_stages = _kernel_stages(batch_report)
    assert kernel_stages, "the batched replay ran no kernel"

    timeline = report.timeline
    assert timeline.total_rounds > 0

    payload = {
        "benchmark": "latency",
        "config": {
            "num_disks": D,
            "block_items": B,
            "operations": OPERATIONS,
            "cache_blocks": CACHE_BLOCKS,
            "executor": "file",
            "batch_operations": BATCH_OPERATIONS,
            "batch_size": BATCH_SIZE,
        },
        "op_classes": op_classes,
        "layers": layers,
        "fs_lane_busy_share": round(fs_busy_share, 4),
        "kernel_stages": kernel_stages,
        "disks": timeline.to_dict(),
    }
    out = results_dir / "BENCH_latency.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table = render_table(
        ["op", "count", "p50 us", "p95 us", "p99 us", "max us"],
        [
            [op, e["count"], e["p50"], e["p95"], e["p99"], e["max"]]
            for op, e in op_classes.items()
        ],
    )
    table += "\n" + render_table(
        ["layer", "self us/op", "self share"],
        [
            [layer, e["self_us_per_op"], e["self_share"]]
            for layer, e in layers.items()
        ],
    )
    table += "\n" + render_table(
        ["kernel stage (batched)", "calls", "self us/op"],
        [
            [name, e["calls"], e["self_us_per_op"]]
            for name, e in kernel_stages.items()
        ],
    )
    table += "\n" + render_table(
        ["disk", "busy", "idle", "utilization"], timeline.summary_rows()
    )
    save_table("latency", table)

    tracker = LatencyTracker()
    benchmark.pedantic(
        lambda: tracker.stop_ns("lookup", tracker.start()),
        rounds=5,
        iterations=1000,
    )
