"""Instrumented workload runs: the glue between ``repro.workloads`` and
the observability layer.

:func:`run_instrumented` builds a machine and a dictionary, attaches a
span recorder (and optionally an I/O tracer), replays a generated
workload, collects metrics, and evaluates the theorem-bound monitors —
returning everything as one :class:`ObsReport`.  The CLI
(``python -m repro.obs``) and the smoke benchmark are thin wrappers over
this function.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.reporting import render_table
from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.obs.export import span_events
from repro.obs.latency import DiskTimeline, LatencyTracker, percentile_rows
from repro.obs.layers import LayerTracer, layer_totals
from repro.obs.metrics import (
    MetricsRegistry,
    collect_batches,
    collect_load_distribution,
    collect_machine,
    collect_spans,
)
from repro.obs.monitors import MonitorSet, default_monitors
from repro.pdm.executors import create_executor
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import SpanRecorder, attach_spans
from repro.pdm.trace import TraceRecorder, attach
from repro.workloads.replay import ReplaySummary, Workload, replay

STRUCTURES = ("basic", "dynamic")


def _cleanup_on_close(machine: ParallelDiskMachine, directory: str) -> None:
    """Arrange for ``machine.close()`` to also remove ``directory`` (the
    throwaway image backing an ``executor_dir``-less file-backed run)."""
    inner = machine.close

    def close() -> None:
        inner()
        shutil.rmtree(directory, ignore_errors=True)

    machine.close = close  # type: ignore[method-assign]


@dataclass
class ObsReport:
    """Everything one instrumented run produced."""

    structure: str
    params: Dict[str, Any]
    summary: ReplaySummary
    recorder: SpanRecorder
    registry: MetricsRegistry
    monitors: MonitorSet
    tracer: Optional[TraceRecorder] = None
    machine: Any = None
    dictionary: Any = None
    notes: List[str] = field(default_factory=list)
    #: wall time, populated only by ``run_instrumented(wall=True)``: the
    #: per-op latency histograms, the layer tracer that timed the replay
    #: and the replay's own duration.  Deliberately absent from
    #: :meth:`to_dict`: the committed report stays byte-identical whether
    #: or not the run was timed.
    wall_registry: Optional[MetricsRegistry] = None
    layers: Optional[LayerTracer] = None
    replay_ns: int = 0
    timeline: Optional[DiskTimeline] = None

    @property
    def ok(self) -> bool:
        return self.summary.errors == 0 and self.monitors.ok

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the ``BENCH_smoke.json`` payload)."""
        per_kind = {}
        for kind in sorted(self.summary.ios_by_kind):
            per_kind[kind] = {
                "count": len(self.summary.ios_by_kind[kind]),
                "avg_ios": self.summary.avg(kind),
                "worst_ios": self.summary.worst(kind),
            }
        return {
            "structure": self.structure,
            "params": self.params,
            "operations": self.summary.operations,
            "total_ios": self.summary.total_ios,
            "per_kind": per_kind,
            "span_totals": self.recorder.totals(),
            "metrics": self.registry.as_dict(),
            "monitors": self.monitors.summary(),
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        """The human-readable report the CLI prints."""
        lines: List[str] = []
        lines.append(f"== instrumented run: {self.structure} ==")
        lines.append(
            "params: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        )
        lines.append("")
        lines.append("-- per-operation I/O --")
        rows = [
            [
                kind,
                len(self.summary.ios_by_kind[kind]),
                f"{self.summary.avg(kind):.3f}",
                self.summary.worst(kind),
            ]
            for kind in sorted(self.summary.ios_by_kind)
        ]
        lines.append(render_table(["kind", "count", "avg ios", "worst ios"], rows))
        lines.append("")
        lines.append("-- span totals --")
        rows = [
            [
                name,
                agg["count"],
                agg["total_ios"],
                agg["effective_ios"],
                f"{agg['total_ios'] / agg['count']:.3f}",
            ]
            for name, agg in self.recorder.totals().items()
        ]
        lines.append(
            render_table(
                ["span", "count", "raw ios", "effective ios", "avg raw"], rows
            )
        )
        lines.append("")
        lines.append("-- metrics --")
        lines.append(self.registry.render_text())
        lines.append("")
        lines.append("-- bound monitors --")
        lines.append(
            f"checks: {self.monitors.checks}  "
            f"violations: {len(self.monitors.violations)}  "
            f"{'OK' if self.monitors.ok else 'VIOLATED'}"
        )
        for v in self.monitors.violations:
            lines.append(
                f"  [{v.monitor}] {v.span_name}#{v.span_index}: "
                f"observed {v.observed:g} > budget {v.budget:g} ({v.detail})"
            )
        return "\n".join(lines)

    def layer_rows(self) -> List[Tuple[str, float, float]]:
        """``(layer, self us/op, self share)`` per layer of the timed
        replay, then ``("unattributed", us/op, share)``: replay time that
        no traced call covers (the replay driver, the tracer's own
        wrappers).  Shares are of the replay's wall time and sum to 1."""
        self_ns, _ = layer_totals(self.layers)
        ops = max(self.summary.operations, 1)
        total = max(self.replay_ns, 1)
        rest = total - sum(self_ns.values())
        rows = [
            (layer, ns / ops / 1e3, ns / total)
            for layer, ns in self_ns.items()
        ]
        rows.append(("unattributed", rest / ops / 1e3, rest / total))
        return rows

    def render_wall_text(self) -> str:
        """The wall-clock addendum (``--wall``): latency percentiles per op
        class, the layer table of the timed replay, and the per-disk
        utilization summary.  Times here are real time — machine-dependent
        by design; the utilization table counts logical rounds."""
        if self.layers is None:
            return "(wall time not measured; rerun with --wall)"
        lines: List[str] = []
        lines.append("-- wall latency per op (us, measured; varies run to run) --")
        lines.append(
            render_table(
                ["op", "count", "p50", "p95", "p99", "max"],
                percentile_rows(self.wall_registry, "latency.op_us"),
            )
        )
        lines.append("")
        lines.append("-- wall time per layer (client-thread self time) --")
        lines.append(
            render_table(
                ["layer", "self us/op", "self share"],
                [
                    [layer, f"{us:.2f}", f"{share:.1%}"]
                    for layer, us, share in self.layer_rows()
                ],
            )
        )
        if self.params.get("executor") == "file":
            _, busy_ns = layer_totals(self.layers)
            lines.append(
                "fs lane busy share: "
                f"{busy_ns['fs'] / max(self.replay_ns, 1):.1%}"
                " (disk-lane threads, overlapping the client's time)"
            )
        if self.timeline is not None:
            lines.append("")
            lines.append("-- per-disk utilization (logical rounds) --")
            lines.append(
                render_table(
                    ["disk", "busy", "idle", "utilization"],
                    self.timeline.summary_rows(),
                )
            )
            lines.append(
                f"mean utilization: {self.timeline.mean_utilization:.1%} "
                f"over {self.timeline.total_rounds} rounds"
            )
        return "\n".join(lines)


def build_structure(
    structure: str,
    machine: ParallelDiskMachine,
    *,
    universe_size: int,
    capacity: int,
    sigma: int,
    seed: int,
):
    if structure == "basic":
        return BasicDictionary(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            degree=machine.num_disks,
            seed=seed,
        )
    if structure == "dynamic":
        return DynamicDictionary(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            sigma=sigma,
            seed=seed,
        )
    raise ValueError(
        f"unknown structure {structure!r}; choose from {STRUCTURES}"
    )


def run_instrumented(
    structure: str = "basic",
    *,
    num_disks: int = 16,
    block_items: int = 32,
    universe_size: int = 1 << 20,
    capacity: int = 512,
    operations: int = 512,
    sigma: int = 32,
    insert_fraction: float = 0.4,
    delete_fraction: float = 0.1,
    seed: int = 0,
    trace: bool = False,
    strict: bool = False,
    monitors: Optional[MonitorSet] = None,
    batch: Optional[int] = None,
    cache_blocks: Optional[int] = None,
    wall: bool = False,
    executor: str = "simulated",
    executor_dir: Optional[str] = None,
) -> ObsReport:
    """Replay a generated workload under full instrumentation.

    Returns the spans, metrics and monitor verdicts of the run; with
    ``strict=True`` the first theorem-budget violation raises
    :class:`~repro.obs.monitors.BoundViolationError` instead of being
    recorded.  With ``batch=N`` the replay routes runs of same-kind
    operations through the dictionary's round-packed batch methods and the
    report gains ``batch.*`` metrics (``rounds_saved`` et al.).  With
    ``cache_blocks=N`` the machine runs an ``N``-block buffer pool
    (:mod:`repro.pdm.cache`) and the report gains ``cache.*`` metrics —
    note the theorem-bound monitors assume the uncached cost model, so a
    cached strict run may legitimately *under*-shoot the budgets.

    With ``wall=True`` the replay runs under a
    :class:`~repro.obs.layers.LayerTracer` and with I/O tracing on: the
    report gains a separate ``wall_registry`` of per-op latency
    histograms, the tracer itself (``layers``, for the layer table) and a
    ``timeline`` of per-disk utilization.  The deterministic outputs —
    ``to_dict()``, every metric in ``registry``, every monitor verdict,
    every span tree — are byte-identical with ``wall`` on or off.

    ``executor`` selects the physical backend (:mod:`repro.pdm.executors`):
    ``"simulated"`` (default, in-memory), or ``"file"`` over real per-disk
    logs in ``executor_dir`` (a temporary directory when ``None``, removed
    when the run's machine is closed by the caller).  The
    executor-equivalence invariant means every deterministic output is
    byte-identical across backends.
    """
    temp_dir: Optional[str] = None
    if executor == "simulated":
        engine = None
    else:
        if executor_dir is None:
            temp_dir = tempfile.mkdtemp(prefix="repro-executor-")
            executor_dir = temp_dir
        engine = create_executor(executor, directory=executor_dir)
    machine = ParallelDiskMachine(
        num_disks, block_items, cache_blocks=cache_blocks, executor=engine
    )
    if temp_dir is not None:
        # The machine owns the throwaway image: closing it removes the
        # logs (callers that want to inspect them pass executor_dir).
        _cleanup_on_close(machine, temp_dir)
    dictionary = build_structure(
        structure,
        machine,
        universe_size=universe_size,
        capacity=capacity,
        sigma=sigma,
        seed=seed,
    )
    workload = Workload.generate(
        name=f"{structure}-mixed",
        universe_size=universe_size,
        operations=operations,
        capacity=capacity,
        value_bits=sigma,
        insert_fraction=insert_fraction,
        delete_fraction=delete_fraction,
        seed=seed,
    )
    recorder = attach_spans(machine)
    tracer = attach(machine) if trace or wall else None

    layers: Optional[LayerTracer] = None
    replay_ns = 0
    if wall:
        layers = LayerTracer()
        with layers:
            start = time.perf_counter_ns()  # detlint: ignore[DET004] -- --wall only; feeds the wall tables, never the report
            summary = replay(dictionary, workload, batch=batch)
            replay_ns = time.perf_counter_ns() - start  # detlint: ignore[DET004] -- as above
    else:
        summary = replay(dictionary, workload, batch=batch)

    registry = MetricsRegistry()
    collect_machine(registry, machine)
    collect_spans(registry, recorder)
    if batch is not None:
        collect_batches(registry, recorder)
    if structure == "basic":
        collect_load_distribution(
            registry, dictionary.load_histogram(), structure=structure
        )
    else:
        collect_load_distribution(
            registry,
            dictionary.membership.load_histogram(),
            structure=f"{structure}.membership",
        )
        for level, occupied in enumerate(dictionary.level_occupancy()):
            registry.gauge(
                "dynamic_dict.level_occupancy", level=level
            ).set(occupied)

    monitor_set = monitors if monitors is not None else MonitorSet(
        monitors=default_monitors(), strict=strict
    )
    monitor_set.check_recorder(recorder)

    wall_registry: Optional[MetricsRegistry] = None
    timeline = None
    if layers is not None:
        # Root calls are the replayed operations; their op class is the
        # last component of the span name ("core.basic_dict.lookup").
        latency = LatencyTracker()
        for _, name, start, end, parent, _, _, _ in layers.spans:
            if parent is None:
                latency.observe_ns(name.rsplit(".", 1)[-1], end - start)
        wall_registry = MetricsRegistry()
        latency.record_into(wall_registry)
        timeline = DiskTimeline.from_tracer(tracer, machine.num_disks)

    params = {
        "num_disks": num_disks,
        "block_items": block_items,
        "universe_size": universe_size,
        "capacity": capacity,
        "operations": operations,
        "sigma": sigma,
        "seed": seed,
    }
    if batch is not None:
        params["batch"] = batch
    if cache_blocks is not None:
        params["cache_blocks"] = cache_blocks
    if executor != "simulated":
        # Executor equivalence: the backend changes no deterministic
        # output, but the report should say how the bytes really moved.
        params["executor"] = executor
    return ObsReport(
        structure=structure,
        params=params,
        summary=summary,
        recorder=recorder,
        registry=registry,
        monitors=monitor_set,
        tracer=tracer,
        machine=machine,
        dictionary=dictionary,
        wall_registry=wall_registry,
        layers=layers,
        replay_ns=replay_ns,
        timeline=timeline,
    )


def report_events(report: ObsReport) -> List[Dict[str, Any]]:
    """JSONL event stream of one report: a header, every span, every
    metric, every violation."""
    events: List[Dict[str, Any]] = [
        {
            "type": "run",
            "structure": report.structure,
            "params": report.params,
            "operations": report.summary.operations,
            "total_ios": report.summary.total_ios,
        }
    ]
    events.extend(span_events(report.recorder))
    for key, data in report.registry.as_dict().items():
        events.append({"type": "metric", "name": key, **data})
    for v in report.monitors.violations:
        events.append(v.to_dict())
    return events
