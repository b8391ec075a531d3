"""Tests for latency histograms and disk timelines (repro.obs.latency)
and histogram quantiles (repro.obs.metrics)."""

import pytest

from repro.obs.latency import DiskTimeline, LatencyTracker, percentile_rows
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
)
from repro.pdm.trace import attach


class FakeClock:
    def __init__(self, step=1000):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestQuantiles:
    def test_empty_histogram_is_zero(self):
        h = Histogram([1, 10, 100])
        assert h.quantile(0.5) == 0.0
        assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_interpolates_within_bucket(self):
        h = Histogram([10, 20])
        for _ in range(10):
            h.observe(20)  # all mass in (10, 20]
        # ranks spread linearly across the second bucket
        assert h.quantile(0.5) == pytest.approx(15.0)
        assert h.quantile(1.0) == pytest.approx(20.0)

    def test_first_bucket_interpolates_from_zero(self):
        h = Histogram([10, 20])
        h.observe(10)
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_clamped_to_observed_max(self):
        h = Histogram([10, 100])
        h.observe(11)  # lands in (10, 100] but max is 11
        assert h.quantile(0.99) == pytest.approx(11.0)

    def test_overflow_reports_max(self):
        h = Histogram([10])
        h.observe(5000)
        assert h.quantile(0.5) == pytest.approx(5000.0)

    def test_quantile_validates_range(self):
        h = Histogram([1])
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_percentile_label_rendering(self):
        h = Histogram([1])
        h.observe(1)
        assert set(h.percentiles((0.5, 0.999))) == {"p50", "p99.9"}

    def test_median_of_uniform_spread(self):
        h = Histogram(list(range(1, 11)))  # bounds 1..10
        for v in range(1, 11):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(5.0, abs=0.51)


class TestCollectLatency:
    def test_percentile_rows_shape(self):
        tracker = LatencyTracker(clock=FakeClock())
        for op, ns in (("lookup", 5_000), ("upsert", 9_000),
                       ("lookup", 7_000)):
            tracker.observe_ns(op, ns)
        registry = MetricsRegistry()
        tracker.record_into(registry)
        rows = percentile_rows(registry)
        assert [r[0] for r in rows] == ["lookup", "upsert"]
        assert [r[1] for r in rows] == [2, 1]
        assert all(len(r) == 6 for r in rows)  # label,count,p50,p95,p99,max


class TestLatencyTracker:
    def test_matches_plain_histogram(self):
        tracker = LatencyTracker(clock=FakeClock())
        reference = Histogram(DEFAULT_LATENCY_BUCKETS_US)
        for ns in (500, 1_500, 80_000, 2_000_000, 900_000_000):
            tracker.observe_ns("lookup", ns)
            reference.observe(ns / 1000.0)
        h = tracker.histogram("lookup")
        assert h.counts == reference.counts
        assert h.total == reference.total
        assert h.max == reference.max
        assert h.sum == pytest.approx(reference.sum)

    def test_start_stop_observes(self):
        tracker = LatencyTracker(clock=FakeClock(step=1000))
        t0 = tracker.start()
        ns = tracker.stop_ns("lookup", t0)
        assert ns == 1000
        assert tracker.operations == 1

    def test_record_into_merges_with_collect_family(self):
        tracker = LatencyTracker(clock=FakeClock())
        tracker.observe_ns("lookup", 5_000)
        tracker.observe_ns("lookup", 7_000)
        tracker.observe_ns("delete", 1_000)
        registry = MetricsRegistry()
        tracker.record_into(registry)
        h = registry.histogram(
            "latency.op_us", DEFAULT_LATENCY_BUCKETS_US, op="lookup"
        )
        assert h.total == 2
        # merging twice accumulates
        tracker.record_into(registry)
        assert h.total == 4

    def test_percentiles_summary(self):
        tracker = LatencyTracker(clock=FakeClock())
        for _ in range(100):
            tracker.observe_ns("lookup", 10_000)
        summary = tracker.percentiles()
        assert summary["lookup"]["count"] == 100
        assert 0 < summary["lookup"]["p50"] <= 10.0
        assert summary["lookup"]["max"] == 10.0


class TestDiskTimeline:
    def make_tracer(self, machine):
        tracer = attach(machine)
        machine.read_blocks([(0, 0), (1, 0)])  # 1 round, disks 0+1
        machine.read_blocks([(0, 1), (0, 2)])  # 2 rounds, disk 0 twice
        return tracer

    def test_busy_idle_accounting(self, machine):
        tracer = self.make_tracer(machine)
        timeline = DiskTimeline.from_tracer(tracer, machine.D)
        assert timeline.total_rounds == 3
        assert timeline.busy_rounds[0] == 3  # busy every round
        assert timeline.busy_rounds[1] == 1
        assert timeline.utilization(0) == pytest.approx(1.0)
        assert timeline.utilization(1) == pytest.approx(1 / 3)
        assert timeline.utilization(7) == 0.0

    def test_busy_capped_by_batch_rounds(self, machine):
        tracer = attach(machine)
        machine.read_blocks([(0, 0)])  # 1 round, one block on disk 0
        timeline = DiskTimeline.from_tracer(tracer, machine.D)
        (ev,) = timeline.events
        assert ev.busy == {0: 1}
        assert ev.rounds == 1

    def test_logical_timeline_bins(self, machine):
        tracer = self.make_tracer(machine)
        timeline = DiskTimeline.from_tracer(tracer, machine.D)
        (bin0,) = timeline.logical_timeline(width=64)
        assert bin0["start_round"] == 0
        assert bin0["busy"][0] == 3

    def test_to_dict_deterministic_shape(self, machine):
        timeline = DiskTimeline.from_tracer(
            self.make_tracer(machine), machine.D
        )
        payload = timeline.to_dict()
        assert payload["num_disks"] == machine.D
        assert payload["total_rounds"] == 3
        assert len(payload["per_disk"]) == machine.D
        flat = str(payload)
        assert "wall" not in flat and "ns" not in flat

    def test_rejects_bad_widths(self, machine):
        timeline = DiskTimeline.from_tracer(
            self.make_tracer(machine), machine.D
        )
        with pytest.raises(ValueError):
            timeline.logical_timeline(width=0)
