"""Machine-level fault injection: typed errors, retries, checksums."""

from __future__ import annotations

import pytest

from repro.faults.plan import FOREVER
from repro.pdm import EXECUTOR_NAMES, create_executor
from repro.pdm.errors import BlockCorruption, DiskFailure, TransientIOError
from repro.pdm.faults import (
    DiskOutage,
    SilentCorruption,
    StragglerWindow,
    TransientWindow,
    attach_faults,
    detach_faults,
)
from repro.pdm.machine import ParallelDiskMachine


def _write(machine, addr, payload=("x",)):
    items = list(payload) + [None] * (machine.block_items - len(payload))
    machine.write_blocks([(addr, items, machine.block_bits)])


class TestOutages:
    def test_read_from_down_disk_raises(self, machine):
        _write(machine, (0, 0))
        attach_faults(machine, [DiskOutage(0, 0, FOREVER)])
        with pytest.raises(DiskFailure) as exc_info:
            machine.read_blocks([(0, 0)])
        assert exc_info.value.disk == 0
        assert exc_info.value.kind == "DiskFailure"

    def test_write_to_down_disk_is_atomic(self, machine):
        attach_faults(machine, [DiskOutage(2, 0, FOREVER)])
        before = machine.stats.snapshot()
        with pytest.raises(DiskFailure):
            machine.write_blocks(
                [
                    ((1, 0), [1] + [None] * 15, machine.block_bits),
                    ((2, 0), [2] + [None] * 15, machine.block_bits),
                ]
            )
        # Nothing charged, nothing written — not even the healthy half.
        assert machine.stats.since(before).total_ios == 0
        assert machine.peek_at((1, 0)) is None

    def test_outage_window_heals(self, machine):
        _write(machine, (0, 0))
        clock = machine.stats.total_ios
        attach_faults(machine, [DiskOutage(0, clock, clock + 1)])
        with pytest.raises(DiskFailure):
            machine.read_blocks([(0, 0)])
        # The failed attempt advanced the clock past the window.
        blocks = machine.read_blocks([(0, 0)])
        assert blocks[(0, 0)].payload[0] == "x"

    def test_degraded_read_partitions_addresses(self, machine):
        _write(machine, (0, 0))
        _write(machine, (1, 0))
        attach_faults(machine, [DiskOutage(0, 0, FOREVER)])
        blocks, failures = machine.read_blocks_degraded([(0, 0), (1, 0)])
        assert set(blocks) == {(1, 0)}
        assert set(failures) == {(0, 0)}
        assert isinstance(failures[(0, 0)], DiskFailure)


class TestTransients:
    def test_short_window_is_retried_through(self, machine):
        _write(machine, (3, 0))
        clock = machine.stats.total_ios
        attach_faults(machine, [TransientWindow(3, clock, clock + 2)])
        blocks = machine.read_blocks([(3, 0)])
        assert blocks[(3, 0)].payload[0] == "x"
        assert machine.stats.retry_ios > 0

    def test_budget_exhaustion_raises_typed(self, machine):
        _write(machine, (3, 0))
        attach_faults(
            machine, [TransientWindow(3, 0, FOREVER)], retry_budget=2
        )
        with pytest.raises(TransientIOError):
            machine.read_blocks([(3, 0)])
        assert machine.faults.injected["transient"] >= 3

    def test_retry_rounds_counted_as_retry_ios(self, machine):
        _write(machine, (3, 0))
        clock = machine.stats.total_ios
        attach_faults(machine, [TransientWindow(3, clock, clock + 1)])
        before = machine.stats.snapshot()
        machine.read_blocks([(3, 0)])
        cost = machine.stats.since(before)
        assert cost.read_ios == cost.retry_ios + 1  # retries + one real round


class TestCorruption:
    def test_checksummed_read_detects(self, machine):
        attach_faults(
            machine,
            [SilentCorruption(0, 10_000, 0)],
        )
        _write(machine, (0, 0))  # sealed: checksums are on
        # Burn I/O until the corruption round passes.
        while machine.stats.total_ios < 10_000:
            machine.stats.read_ios += 100
        with pytest.raises(BlockCorruption):
            machine.read_blocks([(0, 0)])
        assert machine.faults.injected["corruption"] == 1

    def test_without_checksums_corruption_is_silent(self, machine):
        attach_faults(
            machine,
            [SilentCorruption(0, 10_000, 0)],
            checksums=False,
        )
        _write(machine, (0, 0))
        while machine.stats.total_ios < 10_000:
            machine.stats.read_ios += 100
        blocks = machine.read_blocks([(0, 0)])  # no error...
        assert blocks[(0, 0)].payload[0] != "x"  # ...but garbage

    def test_corrupting_unwritten_block_is_noop(self, machine):
        attach_faults(machine, [SilentCorruption(0, 0, 7)])
        machine.read_blocks([(0, 7)])
        assert machine.faults.injected["corruption"] == 0
        assert machine.faults.pending_corruptions == 0  # consumed anyway


class TestCorruptionAfterVerify:
    """A block that passed verification (so its version is memoised) and
    is then silently corrupted must still fail the next checksummed read:
    the scrambled copy is a new Block carrying the stale checksum."""

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_verified_then_corrupted_block_is_caught(
        self, executor, tmp_path, fingerprints
    ):
        machine = ParallelDiskMachine(
            8, 16, item_bits=64,
            executor=(
                None if executor == "simulated"
                else create_executor(executor, directory=str(tmp_path))
            ),
        )
        try:
            attach_faults(machine, [SilentCorruption(0, 10_000, 0)])
            _write(machine, (0, 0))
            blk = machine.read_blocks([(0, 0)])[(0, 0)]
            assert blk.payload[0] == "x"
            before = len(fingerprints)
            assert blk.verify()
            assert len(fingerprints) == before  # the memo is set
            while machine.stats.total_ios < 10_000:
                machine.stats.read_ios += 100
            with pytest.raises(BlockCorruption):
                machine.read_blocks([(0, 0)])
            assert machine.faults.injected["corruption"] == 1
        finally:
            machine.close()


class TestStragglers:
    def test_straggler_charges_extra_rounds(self, machine):
        _write(machine, (5, 0))
        clock = machine.stats.total_ios
        attach_faults(
            machine, [StragglerWindow(5, clock, clock + 1, extra_rounds=2)]
        )
        before = machine.stats.snapshot()
        machine.read_blocks([(5, 0)])
        cost = machine.stats.since(before)
        assert cost.read_ios == 3  # 1 real + 2 straggler
        assert cost.retry_ios == 2
        assert machine.faults.injected["straggler_rounds"] == 2


class TestAttachDetach:
    def test_double_attach_rejected(self, machine):
        attach_faults(machine, [])
        with pytest.raises(RuntimeError):
            attach_faults(machine, [])

    def test_event_disk_validated(self, machine):
        with pytest.raises(ValueError):
            attach_faults(machine, [DiskOutage(99, 0, 1)])

    def test_detach_restores_plain_reads(self, machine):
        _write(machine, (0, 0))
        attach_faults(machine, [DiskOutage(0, 0, FOREVER)])
        with pytest.raises(DiskFailure):
            machine.read_blocks([(0, 0)])
        detach_faults(machine)
        assert machine.faults is None
        blocks = machine.read_blocks([(0, 0)])
        assert blocks[(0, 0)].payload[0] == "x"

    def test_storage_shared_through_wrap(self, machine):
        _write(machine, (4, 1))
        attach_faults(machine, [])
        assert machine.read_blocks([(4, 1)])[(4, 1)].payload[0] == "x"
