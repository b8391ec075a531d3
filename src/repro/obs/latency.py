"""Latency histograms and per-disk utilization timelines.

* :class:`LatencyTracker` — a histogram-only wall-latency aggregator
  cheap enough to leave on in a serving loop (two clock reads and one
  bisect per operation, three Python-level calls:
  ``tests/obs/test_detached_cost.py`` counts them).  ``python -m repro.obs
  --wall`` feeds it the root-call durations of the layer tracer
  (:mod:`repro.obs.layers`).  The *values* are wall measurements and vary
  run to run; the *schema* (bucket bounds
  :data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS_US`, labels, key
  order) never does, so reports from different runs line up
  metric-for-metric.
* :class:`DiskTimeline` — busy/idle accounting per disk on the logical
  round clock, from a :class:`~repro.pdm.trace.TraceRecorder`; fully
  deterministic.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    DEFAULT_QUANTILES,
    Histogram,
    MetricsRegistry,
)

def percentile_rows(
    registry: MetricsRegistry,
    name: str = "latency.op_us",
    *,
    qs: Sequence[float] = DEFAULT_QUANTILES,
) -> List[List[Any]]:
    """Table rows ``[label, count, p50, p95, p99, max]`` (µs, label order
    = first-observation order) for one latency histogram family."""
    rows: List[List[Any]] = []
    for metric_name, labels, metric in registry.items():
        if metric_name != name or not isinstance(metric, Histogram):
            continue
        label = ",".join(labels.values()) if labels else "-"
        pcts = metric.percentiles(qs)
        rows.append(
            [label, metric.total]
            + [f"{pcts[k]:.1f}" for k in pcts]
            + [f"{metric.max:.1f}"]
        )
    return rows


# -- always-on low-overhead mode ----------------------------------------------


class LatencyTracker:
    """Histogram-only wall-latency aggregator for the always-on mode.

    No span trees, no allocation per operation: ``observe_ns`` is a dict
    probe plus a bisect into the fixed bucket bounds.  Use
    :meth:`start` / :meth:`stop_ns` around each operation (two clock
    reads) or :meth:`observe_ns` when the caller already timed it.  The
    result is the same :class:`~repro.obs.metrics.Histogram` shape every
    latency table reads.
    """

    __slots__ = ("clock", "buckets", "_hists")

    def __init__(
        self,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        self.buckets = list(buckets)
        self._hists: Dict[str, Histogram] = {}  # detlint: guarded(owner-lane) -- one tracker per owning thread; cross-thread aggregation goes through record_into on the owner

    def start(self) -> int:
        return self.clock()

    def stop_ns(self, op: str, started: int) -> int:
        ns = self.clock() - started
        self.observe_ns(op, ns)
        return ns

    def observe_ns(self, op: str, ns: int) -> None:
        h = self._hists.get(op)
        if h is None:
            h = self._hists[op] = Histogram(self.buckets)
        us = ns / 1000.0
        # Inline of Histogram.observe(us) with a bisect instead of the
        # linear bound scan — this is the per-operation hot path, one
        # Python-level call per observation.
        h.counts[bisect_left(h.bounds, us)] += 1
        h.total += 1
        h.sum += us
        if us > h.max:
            h.max = us

    def histogram(self, op: str) -> Optional[Histogram]:
        return self._hists.get(op)

    @property
    def operations(self) -> int:
        return sum(h.total for h in self._hists.values())

    def record_into(
        self, registry: MetricsRegistry, name: str = "latency.op_us"
    ) -> None:
        """Merge the tracked histograms into ``registry``, one histogram
        of family ``name`` per op class (label ``op``)."""
        for op, h in self._hists.items():
            target = registry.histogram(name, self.buckets, op=op)
            for idx, count in enumerate(h.counts):
                target.counts[idx] += count
            target.total += h.total
            target.sum += h.sum
            if h.max > target.max:
                target.max = h.max

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Dict[str, float]]:
        """Per-op percentile summary (µs): ``{op: {"count", "p50", ...}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for op, h in self._hists.items():
            entry: Dict[str, float] = {"count": h.total}
            entry.update(
                {k: round(v, 2) for k, v in h.percentiles(qs).items()}
            )
            entry["max"] = round(h.max, 2)
            out[op] = entry
        return out


# -- per-disk utilization timelines -------------------------------------------


@dataclass(frozen=True)
class TimelineEvent:
    """One traced batch I/O placed on the logical round clock."""

    kind: str
    start_round: int
    rounds: int
    busy: Dict[int, int]  # disk -> busy rounds within this batch


@dataclass
class DiskTimeline:
    """Busy/idle accounting per disk, per logical round.

    Built from a :class:`~repro.pdm.trace.TraceRecorder`: each batch I/O
    advances the logical clock by its charged rounds and occupies every
    disk it touches for that disk's block multiplicity (≤ the batch
    rounds; the remainder is idle — exactly the slack the paper's striped
    layouts eliminate).
    """

    num_disks: int
    total_rounds: int = 0
    busy_rounds: List[int] = field(default_factory=list)
    events: List[TimelineEvent] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer, num_disks: int) -> "DiskTimeline":
        timeline = cls(num_disks=num_disks, busy_rounds=[0] * num_disks)
        cursor = 0
        for ev in tracer.events:
            multiplicity: Dict[int, int] = {}
            for disk_id, _idx in ev.addrs:
                multiplicity[disk_id] = multiplicity.get(disk_id, 0) + 1
            busy = {
                disk_id: min(count, ev.rounds)
                for disk_id, count in multiplicity.items()
            }
            for disk_id, rounds in busy.items():
                if 0 <= disk_id < num_disks:
                    timeline.busy_rounds[disk_id] += rounds
            timeline.events.append(
                TimelineEvent(
                    kind=ev.kind,
                    start_round=cursor,
                    rounds=ev.rounds,
                    busy=busy,
                )
            )
            cursor += ev.rounds
        timeline.total_rounds = cursor
        return timeline

    def utilization(self, disk_id: int) -> float:
        if not self.total_rounds:
            return 0.0
        return self.busy_rounds[disk_id] / self.total_rounds

    @property
    def mean_utilization(self) -> float:
        if not self.num_disks:
            return 0.0
        return sum(self.utilization(d) for d in range(self.num_disks)) / (
            self.num_disks
        )

    def logical_timeline(
        self, width: int = 64
    ) -> List[Dict[str, Any]]:
        """Per-disk busy rounds binned into intervals of ``width`` logical
        rounds: ``[{"start_round", "busy": [per-disk]}, ...]``."""
        if width <= 0:
            raise ValueError(f"interval width must be positive, got {width}")
        bins: Dict[int, List[int]] = {}
        for ev in self.events:
            start = (ev.start_round // width) * width
            row = bins.setdefault(start, [0] * self.num_disks)
            for disk_id, busy in ev.busy.items():
                if 0 <= disk_id < self.num_disks:
                    row[disk_id] += busy
        return [
            {"start_round": start, "busy": bins[start]}
            for start in sorted(bins)
        ]

    def summary_rows(self) -> List[List[Any]]:
        """Table rows ``[disk, busy, idle, utilization]`` per disk."""
        rows: List[List[Any]] = []
        for d in range(self.num_disks):
            busy = self.busy_rounds[d]
            rows.append(
                [d, busy, self.total_rounds - busy,
                 f"{self.utilization(d):.1%}"]
            )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic summary (logical rounds)."""
        return {
            "num_disks": self.num_disks,
            "total_rounds": self.total_rounds,
            "mean_utilization": round(self.mean_utilization, 4),
            "per_disk": [
                {
                    "disk": d,
                    "busy_rounds": self.busy_rounds[d],
                    "idle_rounds": self.total_rounds - self.busy_rounds[d],
                    "utilization": round(self.utilization(d), 4),
                }
                for d in range(self.num_disks)
            ],
        }
