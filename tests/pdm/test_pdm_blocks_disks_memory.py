"""Unit tests for blocks, disks and internal-memory accounting."""

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.faults.plan import FaultPlan
from repro.pdm import create_executor
from repro.pdm.block import Block, BlockOverflowError, payload_fingerprint
from repro.pdm.disk import Disk
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.memory import InternalMemory, InternalMemoryExceeded


class TestBlock:
    def test_new_block_is_empty(self):
        b = Block(128)
        assert b.is_empty
        assert b.free_bits == 128

    def test_store_and_clear(self):
        b = Block(128)
        b.store([1, 2], 100)
        assert not b.is_empty
        assert b.used_bits == 100
        assert b.free_bits == 28
        b.clear()
        assert b.is_empty

    def test_store_at_exact_capacity(self):
        b = Block(128)
        b.store("x", 128)
        assert b.free_bits == 0

    def test_overflow_rejected(self):
        b = Block(128)
        with pytest.raises(BlockOverflowError):
            b.store("x", 129)

    def test_negative_size_rejected(self):
        b = Block(128)
        with pytest.raises(ValueError):
            b.store("x", -1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Block(0)


def _write_grid(machine):
    """Write three blocks per disk (sealed: checksums are on); return
    their addresses."""
    addrs = [(disk, index) for disk in range(8) for index in range(3)]
    machine.write_blocks(
        [(a, [a[0], a[1]] + [None] * 14, machine.block_bits) for a in addrs]
    )
    return addrs


def _sealed(payload=(1, 2, 3), used_bits=192):
    b = Block(1024)
    b.store(list(payload), used_bits)
    b.seal()
    return b


class TestVerifyOncePerVersion:
    """A block is fingerprinted once per version: a seal or a passed
    verify records the version it checked.  The memo is sound only while
    every payload change draws a fresh version (``store``/``clear``) and
    every other source of different bytes is a new ``Block``."""

    def test_sealed_version_is_not_fingerprinted_again(self, fingerprints):
        b = _sealed()
        assert len(fingerprints) == 1
        assert b.verify() and b.verify() and b.verify()
        assert len(fingerprints) == 1

    def test_passed_verify_records_the_version(self, fingerprints):
        # The file executor's shape: a fresh Block per frame, stored and
        # then given the on-medium seal without a seal() of its own.
        sealed = _sealed()
        frame = Block(1024)
        frame.store(list(sealed.payload), sealed.used_bits)
        frame.checksum = sealed.checksum
        before = len(fingerprints)
        assert frame.verify() and frame.verify()
        assert len(fingerprints) == before + 1

    def test_failed_verify_is_not_recorded(self, fingerprints):
        sealed = _sealed()
        frame = Block(1024)
        frame.store([9, 9, 9], sealed.used_bits)
        frame.checksum = sealed.checksum
        before = len(fingerprints)
        assert not frame.verify() and not frame.verify()
        assert len(fingerprints) == before + 2

    @pytest.mark.parametrize("change", ["store", "clear"])
    def test_store_or_clear_invalidates_the_memo(self, change):
        b = _sealed()
        stale = b.checksum
        assert b.verify()
        if change == "store":
            b.store([9, 9, 9], b.used_bits)
        else:
            b.clear()
        b.checksum = stale  # a seal that no longer matches the payload
        assert not b.verify()

    def test_scrambled_copy_with_stale_checksum_fails(self):
        # The fault layer's shape: a new Block carrying the old checksum.
        # Its checksum value already passed verification on the original,
        # so a memo keyed on the checksum would wrongly accept it.
        original = _sealed()
        assert original.verify()
        scrambled = Block(original.capacity_bits)
        scrambled.payload = [3, 2, 1]
        scrambled.used_bits = original.used_bits
        scrambled.checksum = original.checksum
        assert not scrambled.verify()
        assert original.verify()


class TestWideIntFingerprint:
    """The fingerprint sees every bit of an int, not just its 64-bit
    residue: a corruption above bit 63 of a stored value must fail
    verification."""

    def test_values_equal_mod_2_64_differ(self):
        assert payload_fingerprint([(7, 0, 5)], 96) != payload_fingerprint(
            [(7, 0, 5 + 2**64)], 96
        )
        assert payload_fingerprint([(7, 0, 1 << 70)], 96) != (
            payload_fingerprint([(7, 0, 1 << 71)], 96)
        )
        assert payload_fingerprint([-(1 << 70)], 64) != (
            payload_fingerprint([1 << 70], 64)
        )

    def test_scramble_above_bit_63_fails_verify(self):
        original = _sealed(payload=[(7, 0, (1 << 90) | 5)], used_bits=192)
        scrambled = Block(original.capacity_bits)
        scrambled.payload = [(7, 0, (1 << 90) | (1 << 70) | 5)]
        scrambled.used_bits = original.used_bits
        scrambled.checksum = original.checksum
        assert original.verify()
        assert not scrambled.verify()


class TestFingerprintCounts:
    """Exact, repeatable fingerprint counts on the machine paths."""

    def _dictionary(self, machine):
        d = BasicDictionary(
            machine, universe_size=1 << 16, capacity=64, degree=8, seed=5
        )
        keys = [(7 + 97 * i) % (1 << 16) for i in range(24)]
        for k in keys:
            d.upsert(k, k % 251)
        return d, keys

    def test_degraded_batch_lookup_fingerprints_nothing(self, fingerprints):
        machine = ParallelDiskMachine(8, 16, item_bits=64)
        d, keys = self._dictionary(machine)
        written = sum(disk.touched_blocks for disk in machine.disks)
        del fingerprints[:]
        attach_faults(machine, FaultPlan.kill_disks([0], num_disks=8).events)
        assert machine.checksums
        assert len(fingerprints) == written  # the scrub seals each once
        for _ in range(2):
            del fingerprints[:]
            before = machine.stats.blocks_read
            d.batch_lookup(keys)
            assert machine.stats.blocks_read > before
            assert fingerprints == []

    def test_write_fingerprints_once_per_block(self, fingerprints):
        machine = ParallelDiskMachine(8, 16, item_bits=64)
        attach_faults(machine, [])
        addrs = _write_grid(machine)
        assert len(fingerprints) == len(addrs)
        machine.read_blocks(addrs)
        assert len(fingerprints) == len(addrs)

    def test_file_executor_fingerprints_every_charged_read(
        self, fingerprints, tmp_path
    ):
        # Every frame read becomes a fresh Block, so the file path keeps
        # its full check on each read.
        machine = ParallelDiskMachine(
            8, 16, item_bits=64,
            executor=create_executor("file", directory=str(tmp_path)),
        )
        try:
            attach_faults(machine, [])
            addrs = _write_grid(machine)
            for _ in range(2):
                del fingerprints[:]
                before = machine.stats.blocks_read
                machine.read_blocks(addrs)
                read = machine.stats.blocks_read - before
                assert read == len(addrs)
                assert len(fingerprints) == read
        finally:
            machine.close()


class TestDisk:
    def test_blocks_materialise_lazily(self):
        d = Disk(0, 128)
        assert d.touched_blocks == 0
        d.block(100)
        assert d.touched_blocks == 1
        assert d.high_water == 101

    def test_same_block_returned(self):
        d = Disk(0, 128)
        assert d.block(3) is d.block(3)

    def test_negative_index_rejected(self):
        d = Disk(0, 128)
        with pytest.raises(IndexError):
            d.block(-1)

    def test_used_bits_aggregates(self):
        d = Disk(0, 128)
        d.block(0).store("a", 10)
        d.block(5).store("b", 20)
        assert d.used_bits == 30


class TestInternalMemory:
    def test_unbounded_tracks_peak(self):
        m = InternalMemory()
        m.charge(10)
        m.charge(5)
        m.release(12)
        assert m.used_words == 3
        assert m.peak_words == 15

    def test_capacity_enforced(self):
        m = InternalMemory(capacity_words=10)
        m.charge(10)
        with pytest.raises(InternalMemoryExceeded):
            m.charge(1)

    def test_release_more_than_used_rejected(self):
        m = InternalMemory()
        m.charge(5)
        with pytest.raises(ValueError):
            m.release(6)

    def test_negative_amounts_rejected(self):
        m = InternalMemory()
        with pytest.raises(ValueError):
            m.charge(-1)
        with pytest.raises(ValueError):
            m.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            InternalMemory(capacity_words=0)
