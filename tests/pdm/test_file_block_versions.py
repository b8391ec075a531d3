"""Block versions and counted I/O on the file executor.

The file executor hands out a new :class:`~repro.pdm.block.Block` per
charged read.  When the frame's bytes are the ones its log decoded last
time for that address, the new Block carries the earlier version, so
caches keyed on ``(addr, version)`` (the batch lookup's key columns)
hit as they do on the simulated executor.  These tests pin that the
version follows the content, and that the decode memo never skips the
physical read: every charged block is one ``pread``.
"""

import os
import pickle

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.pdm import create_executor
from repro.pdm.disk import Disk
from repro.pdm.machine import ParallelDiskMachine

D = 4
B = 8


@pytest.fixture
def machine(tmp_path):
    m = ParallelDiskMachine(
        D, B, executor=create_executor("file", directory=str(tmp_path))
    )
    yield m
    m.close()


def _read(machine, addr):
    return machine.read_blocks([addr])[addr]


def _disk_with(machine, disk_id, index, payload):
    disk = Disk(disk_id, machine.block_bits)
    disk.block(index).store(payload, len(payload) * machine.item_bits)
    return disk


class TestVersionFollowsContent:
    def test_unchanged_block_keeps_its_version(self, machine):
        machine.write_blocks([((1, 2), ["a"] * B, machine.block_bits)])
        first, second = _read(machine, (1, 2)), _read(machine, (1, 2))
        assert first is not second
        assert first.version == second.version
        assert first.payload == second.payload == ["a"] * B

    def test_write_changes_the_version(self, machine):
        addr = (1, 2)
        machine.write_blocks([(addr, ["a"] * B, machine.block_bits)])
        before = _read(machine, addr)
        machine.write_blocks([(addr, ["b"] * B, machine.block_bits)])
        after = _read(machine, addr)
        assert after.version != before.version
        assert after.payload == ["b"] * B
        # Writing the first content back is a new frame decoded anew.
        machine.write_blocks([(addr, ["a"] * B, machine.block_bits)])
        again = _read(machine, addr)
        assert again.version not in (before.version, after.version)
        assert again.payload == ["a"] * B

    def test_resync_disk_changes_the_version_of_changed_content(
        self, machine
    ):
        addr = (2, 0)
        machine.write_blocks([(addr, ["a"] * B, machine.block_bits)])
        before = _read(machine, addr)
        machine.replace_disk(2, _disk_with(machine, 2, 0, ["z"] * B))
        after = _read(machine, addr)
        assert after.version != before.version
        assert after.payload == ["z"] * B
        # Resynced to identical content: the right payload, and a stable
        # version from then on.
        machine.replace_disk(2, _disk_with(machine, 2, 0, ["z"] * B))
        same = _read(machine, addr)
        assert same.payload == ["z"] * B
        assert _read(machine, addr).version == same.version


class TestCountedIO:
    def test_repeat_batch_lookup_preads_every_block_and_unpickles_none(
        self, tmp_path, monkeypatch
    ):
        machine = ParallelDiskMachine(
            8, 16, item_bits=64,
            executor=create_executor("file", directory=str(tmp_path)),
        )
        try:
            d = BasicDictionary(
                machine, universe_size=1 << 16, capacity=64, degree=8,
                seed=5,
            )
            keys = [(7 + 97 * i) % (1 << 16) for i in range(24)]
            for k in keys:
                d.upsert(k, k % 251)
            first = d.batch_lookup(keys)
            preads, loads = [], []
            real_pread, real_loads = os.pread, pickle.loads

            def counting_pread(fd, length, offset):
                preads.append(offset)
                return real_pread(fd, length, offset)

            def counting_loads(data, *args, **kwargs):
                loads.append(len(data))
                return real_loads(data, *args, **kwargs)

            monkeypatch.setattr(os, "pread", counting_pread)
            monkeypatch.setattr(pickle, "loads", counting_loads)
            before = machine.stats.blocks_read
            again = d.batch_lookup(keys)
            charged = machine.stats.blocks_read - before
            monkeypatch.undo()
            assert again == first
            assert charged > 0
            assert len(preads) == charged
            assert loads == []
        finally:
            machine.close()
