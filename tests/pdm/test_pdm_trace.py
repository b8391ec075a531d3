"""Tests for I/O tracing and the concurrency-analysis helpers."""

from repro.analysis.concurrency import (
    conflict_rate,
    footprint_of,
    footprints,
    max_block_contention,
)
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.trace import attach, detach


class TestTraceRecorder:
    def test_records_reads_and_writes(self, machine):
        recorder = attach(machine)
        machine.read_blocks([(0, 0), (1, 2)])
        machine.write_blocks([((0, 0), [1], 64)])
        assert len(recorder.events) == 2
        assert recorder.events[0].kind == "read"
        assert recorder.events[1].kind == "write"
        assert recorder.rounds == 2

    def test_footprints(self, machine):
        recorder = attach(machine)
        machine.read_blocks([(0, 0), (1, 2)])
        machine.write_blocks([((1, 2), [1], 64)])
        assert recorder.read_footprint() == {(0, 0), (1, 2)}
        assert recorder.write_footprint() == {(1, 2)}

    def test_footprints_preserve_first_touch_order(self, machine):
        """Footprints iterate in first-touch order (no set-iteration
        nondeterminism) while staying set-like for comparisons."""
        recorder = attach(machine)
        machine.read_blocks([(3, 0), (1, 0)])
        machine.read_blocks([(2, 0), (3, 0)])
        assert list(recorder.blocks_touched()) == [(3, 0), (1, 0), (2, 0)]
        assert list(recorder.read_footprint()) == [(3, 0), (1, 0), (2, 0)]
        # set-like semantics are preserved
        assert recorder.blocks_touched() == {(1, 0), (2, 0), (3, 0)}
        assert recorder.blocks_touched() & {(1, 0)} == {(1, 0)}

    def test_footprint_kind_filter_ordered(self, machine):
        recorder = attach(machine)
        machine.write_blocks([((5, 1), [1], 64)])
        machine.read_blocks([(0, 0)])
        machine.write_blocks([((4, 0), [1], 64)])
        assert list(recorder.write_footprint()) == [(5, 1), (4, 0)]
        assert list(recorder.blocks_touched()) == [(5, 1), (0, 0), (4, 0)]

    def test_detach_stops_recording(self, machine):
        recorder = attach(machine)
        detach(machine)
        machine.read_blocks([(0, 0)])
        assert recorder.events == []

    def test_clear_empties_events_and_keeps_recording(self, machine):
        recorder = attach(machine)
        machine.read_blocks([(0, 0)])
        machine.read_blocks([(1, 0)])
        recorder.clear()
        assert recorder.events == []
        machine.read_blocks([(2, 0)])
        assert [e.addrs for e in recorder.events] == [((2, 0),)]

    def test_no_tracer_no_overhead(self, machine):
        machine.read_blocks([(0, 0)])  # must simply work
        assert machine.tracer is None

    def test_utilization_metric(self, machine):
        machine.read_blocks([(d, 0) for d in range(machine.D)])  # striped
        assert machine.stats.utilization(machine.D) == 1.0
        machine.stats.reset()
        machine.read_blocks([(0, i) for i in range(4)])  # one disk
        assert machine.stats.utilization(machine.D) == 4 / (4 * machine.D)


class TestConcurrencyAnalysis:
    def test_footprint_of(self, machine):
        reads, writes = footprint_of(
            machine,
            lambda: machine.write_blocks([((2, 3), [1], 64)]),
        )
        assert writes == {(2, 3)} and reads == set()

    def test_conflict_rate_disjoint(self, machine):
        ops = [
            (lambda d=d: machine.write_blocks([((d, 0), [1], 64)]))
            for d in range(4)
        ]
        prints = footprints(machine, ops)
        assert conflict_rate(prints) == 0.0

    def test_conflict_rate_hot_block(self, machine):
        ops = [
            (lambda: machine.write_blocks([((0, 0), [1], 64)]))
            for _ in range(4)
        ]
        prints = footprints(machine, ops)
        assert conflict_rate(prints) == 1.0
        assert max_block_contention(prints) == 4

    def test_read_write_mode(self, machine):
        prints = [
            ({(0, 0)}, set()),  # reader of block (0,0)
            (set(), {(0, 0)}),  # writer of block (0,0)
        ]
        assert conflict_rate(prints, mode="write-write") == 0.0
        assert conflict_rate(prints, mode="read-write") == 1.0

    def test_single_op_no_pairs(self):
        assert conflict_rate([(set(), {(0, 0)})]) == 0.0
