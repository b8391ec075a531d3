"""Latency attribution: wall histograms, layer split, per-disk timelines.

Everything here consumes the nondeterministic wall channel that
:mod:`repro.obs.wallclock` attaches to span/trace recorders and folds it
into *deterministically shaped* aggregates — fixed-bucket histograms
(:data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS_US`) with p50/p95/p99
estimation, per operation class (``lookup``/``insert``/``delete``/
``batch_*``), per layer (cache hit vs miss vs fault-retry vs uncached)
and per executor lane.  The *values* are wall measurements and vary run
to run; the *schema* (bucket bounds, label sets, key order) never does,
so reports from different runs and PRs line up metric-for-metric.

Two recording modes:

* **Full spans** — a :class:`~repro.pdm.spans.SpanRecorder` with the wall
  channel enabled; :func:`collect_latency` attributes every root span.
* **Always-on** — :class:`LatencyTracker`, a histogram-only aggregator
  cheap enough to leave on in a serving loop (two clock reads and one
  bisect per operation, three Python-level calls:
  ``tests/obs/test_detached_cost.py`` counts them).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    DEFAULT_QUANTILES,
    Histogram,
    MetricsRegistry,
)
from repro.obs.wallclock import DEFAULT_CLOCK
from repro.pdm.spans import Span, SpanRecorder

#: Layer labels, in attribution-priority order.  ``kernel`` is special:
#: it is never the verdict of :func:`classify_layer` (which classifies
#: whole root spans) — its mass comes from the ``kernel.*`` *child* spans
#: a vectorized batched operation opens, attributed by
#: :func:`collect_latency` alongside the root's own layer.
LAYERS: Tuple[str, ...] = (
    "repair",
    "fault-retry",
    "cache-hit",
    "cache-miss",
    "uncached",
    "kernel",
)

#: Root-span name prefixes owned by the self-healing layer
#: (``repro.recovery``): rebuild scheduling and scrub passes.
_REPAIR_PREFIXES: Tuple[str, ...] = ("recovery.", "scrub.")

#: Child-span name prefix owned by the batch-kernel layer
#: (:mod:`repro.kernels`): the vectorized stages a batched operation runs
#: inside its root span (``kernel.neighborhoods`` / ``kernel.plan`` /
#: ``kernel.match``).
KERNEL_PREFIX = "kernel."


def op_class(span: Span) -> str:
    """The operation class of a root span: the last dotted component of
    its name (``"basic_dict.batch_lookup"`` → ``"batch_lookup"``)."""
    return span.name.rsplit(".", 1)[-1]


def classify_layer(span: Span) -> str:
    """Which layer served a root span, by priority:

    * ``repair`` — the span *is* background recovery work (a
      ``recovery.*`` or ``scrub.*`` root), as opposed to a foreground op
      that merely paid for retries;
    * ``fault-retry`` — recovery I/O happened (``retry_ios``/
      ``repair_ios`` in the raw cost, or the span ran degraded);
    * ``cache-hit`` — the buffer pool answered every read (hits recorded,
      zero charged read rounds);
    * ``cache-miss`` — the pool was consulted but a charged fetch
      happened;
    * ``uncached`` — no pool in the loop.
    """
    if span.name.startswith(_REPAIR_PREFIXES):
        return "repair"
    cost = span.cost
    if cost.retry_ios or cost.repair_ios or span.attrs.get("degraded"):
        return "fault-retry"
    hits = span.attrs.get("cache.hits", 0)
    misses = span.attrs.get("cache.misses", 0)
    if hits and not cost.read_ios:
        return "cache-hit"
    if misses or hits:
        return "cache-miss"
    return "uncached"


def collect_latency(
    registry: MetricsRegistry,
    recorder: SpanRecorder,
    *,
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
) -> int:
    """Fold wall-stamped root spans into latency histograms.

    Four label families, one histogram each per label value:
    ``latency.op_us{op=...}``, ``latency.layer_us{layer=...}``,
    ``latency.lane_us{lane=...}`` and — when batched operations ran
    through the vectorized kernels — ``latency.kernel_us{stage=...}``.
    Kernel attribution walks each root's subtree for wall-stamped
    ``kernel.*`` child spans (:data:`KERNEL_PREFIX`); their time lands
    both per stage (``kernel.plan`` → ``stage=plan``) and, summed, under
    ``layer=kernel`` in the layer family, so the layer table answers "how
    much of the wall went to the flat-array kernels" directly.  Spans
    without a wall stamp (recorded before the clock was enabled) are
    skipped.  Returns the number of *root* spans attributed.

    The registry this feeds is the *wall* registry of a report — keep it
    separate from the deterministic one so charged-cost artifacts stay
    byte-identical with the clock on or off.
    """
    attributed = 0
    for root in recorder.roots:
        if root.wall_ns is None:
            continue
        us = root.wall_ns / 1000.0
        registry.histogram("latency.op_us", buckets, op=op_class(root)).observe(us)
        registry.histogram(
            "latency.layer_us", buckets, layer=classify_layer(root)
        ).observe(us)
        if root.lane is not None:
            registry.histogram(
                "latency.lane_us", buckets, lane=root.lane
            ).observe(us)
        for node in root.walk():
            if (
                node is root
                or node.wall_ns is None
                or not node.name.startswith(KERNEL_PREFIX)
            ):
                continue
            kus = node.wall_ns / 1000.0
            registry.histogram(
                "latency.layer_us", buckets, layer="kernel"
            ).observe(kus)
            registry.histogram(
                "latency.kernel_us",
                buckets,
                stage=node.name[len(KERNEL_PREFIX):],
            ).observe(kus)
        attributed += 1
    return attributed


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
    result is the same :class:`~repro.obs.metrics.Histogram` shape the
    full span pipeline produces, so both modes feed the same tables.
    """

    __slots__ = ("clock", "buckets", "_hists")

    def __init__(
        self,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.clock = clock if clock is not None else DEFAULT_CLOCK
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
        """Merge the tracked histograms into ``registry`` (same family
        name as :func:`collect_latency`, labelled by op class)."""
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
    """One traced batch I/O placed on the logical round clock (and, when
    the trace carried the wall channel, on the real one)."""

    kind: str
    start_round: int
    rounds: int
    busy: Dict[int, int]  # disk -> busy rounds within this batch
    wall_ns: Optional[int] = None


@dataclass
class DiskTimeline:
    """Busy/idle accounting per disk, per logical round and per wall
    interval.

    Built from a :class:`~repro.pdm.trace.TraceRecorder`: each batch I/O
    advances the logical clock by its charged rounds and occupies every
    disk it touches for that disk's block multiplicity (≤ the batch
    rounds; the remainder is idle — exactly the slack the paper's striped
    layouts eliminate).  When the tracer carried a wall clock, events
    also have completion stamps and :meth:`wall_timeline` bins the same
    busy accounting into real-time intervals.
    """

    num_disks: int
    total_rounds: int = 0
    busy_rounds: List[int] = field(default_factory=list)
    events: List[TimelineEvent] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer, num_disks: int) -> "DiskTimeline":
        timeline = cls(num_disks=num_disks, busy_rounds=[0] * num_disks)
        walls = tracer.walls
        # walls[i] pairs with the *last* len(walls) events: the clock may
        # have been enabled after recording started.
        wall_base = len(tracer.events) - len(walls)
        cursor = 0
        for i, ev in enumerate(tracer.events):
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
                    wall_ns=walls[i - wall_base] if i >= wall_base else None,
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

    def wall_timeline(
        self, width_ns: int = 1_000_000
    ) -> List[Dict[str, Any]]:
        """Like :meth:`logical_timeline` but binned by wall completion
        stamp (only events recorded while the clock was attached)."""
        if width_ns <= 0:
            raise ValueError(
                f"interval width must be positive, got {width_ns}"
            )
        stamped = [ev for ev in self.events if ev.wall_ns is not None]
        if not stamped:
            return []
        origin = min(ev.wall_ns for ev in stamped)
        bins: Dict[int, List[int]] = {}
        for ev in stamped:
            start = ((ev.wall_ns - origin) // width_ns) * width_ns
            row = bins.setdefault(start, [0] * self.num_disks)
            for disk_id, busy in ev.busy.items():
                if 0 <= disk_id < self.num_disks:
                    row[disk_id] += busy
        return [
            {"start_ns": start, "busy": bins[start]}
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
        """Deterministic summary (logical rounds only — no wall values)."""
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
