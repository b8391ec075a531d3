"""Durability tests for the per-disk block log (`repro.fs.blockfile`).

The regression surface this file pins down:

* torn writes — a crash that truncates the log mid-frame must surface as
  a typed :class:`BlockCorruption` on the damaged block's read, never
  silently resurrect the older frame or leak a raw ``OSError``;
* fsync-before-acknowledge ordering — a failed durability barrier must
  leave the index un-updated, so acknowledged reads only ever serve
  frames that reached the medium;
* every OS-level failure is wrapped into :class:`DiskFailure`;
* the decode memo keys on a frame's bytes: a scrambled frame still
  fails, and a frame rewritten in place or re-appended after ``reset()``
  is decoded anew.
"""

import os

import pytest

from repro.fs.blockfile import (
    CRC_SIZE,
    HEADER_SIZE,
    MAGIC,
    BlockLogFile,
    decode_frame,
    encode_frame,
)
from repro.pdm.errors import BlockCorruption, DiskFailure, IOFault


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "disk-000.blk")


def _fill(log, items):
    log.append_many(
        (index, payload, bits, seal) for index, payload, bits, seal in items
    )


class TestRoundTrip:
    def test_append_read(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(3, ["a", "b"], 16, 12345)
            assert log.read_block(3) == (["a", "b"], 16, 12345)
            assert log.read_block(4) is None

    def test_unsealed_checksum_is_none(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, [1], 8, None)
            payload, bits, seal = log.read_block(0)
            assert (payload, bits, seal) == ([1], 8, None)

    def test_newest_frame_shadows(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(7, ["old"], 8, None)
            log.append_block(7, ["new"], 8, None)
            assert log.read_block(7)[0] == ["new"]
            assert log.block_indices == [7]

    def test_reopen_rebuilds_index(self, log_path):
        with BlockLogFile(log_path) as log:
            _fill(log, [(i, [i * 11], 8, i) for i in range(5)])
            log.append_block(2, ["latest"], 8, None)
        with BlockLogFile(log_path) as log:
            assert log.block_indices == [0, 1, 2, 3, 4]
            assert log.read_block(2) == (["latest"], 8, None)
            assert log.read_block(4) == ([44], 8, 4)

    def test_append_after_reopen_extends(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["first"], 8, None)
        with BlockLogFile(log_path) as log:
            log.append_block(1, ["second"], 8, None)
            assert log.read_block(0)[0] == ["first"]
            assert log.read_block(1)[0] == ["second"]

    def test_reset_truncates(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["x"], 8, None)
            log.reset()
            assert log.block_indices == []
            assert log.read_block(0) is None
        assert os.path.getsize(log_path) == 0


def _rewrite(log_path, offset, data):
    """Overwrite bytes of the log in place, behind the open log's back."""
    with open(log_path, "r+b") as handle:
        handle.seek(offset)
        handle.write(data)


class TestDecodeMemo:
    """``read_block`` unpickles a frame once per distinct frame content,
    on a log that stays open: the pread and the checks run every time,
    and any change to the bytes is decoded anew."""

    def test_repeat_read_returns_the_memoised_record(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(3, ["a", "b"], 16, 7)
            first = log.read_block(3)
            assert log.read_block(3) is first
            log.append_block(3, ["a", "b"], 16, 7)  # same bytes, new frame
            assert log.read_block(3) is first

    def test_flipped_payload_byte_after_a_read_is_caught(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(2, ["payload"], 8, None)
            assert log.read_block(2) == (["payload"], 8, None)
            offset, _ = log.frame_extent(2)
            with open(log_path, "rb") as handle:
                handle.seek(offset + HEADER_SIZE + 1)
                byte = handle.read(1)[0]
            _rewrite(log_path, offset + HEADER_SIZE + 1, bytes([byte ^ 0xFF]))
            with pytest.raises(BlockCorruption):
                log.read_block(2)

    def test_in_place_overwrite_with_a_valid_frame_is_decoded(self, log_path):
        # Same index, same offset, same length: only the bytes tell the
        # two frames apart.
        old = encode_frame(4, ["old"], 8, 11)
        new = encode_frame(4, ["new"], 8, 11)
        assert len(old) == len(new) and old != new
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["first"], 8, None)
            log.append_block(4, ["old"], 8, 11)
            assert log.read_block(4) == (["old"], 8, 11)
            offset, length = log.frame_extent(4)
            assert length == len(new)
            _rewrite(log_path, offset, new)
            assert log.read_block(4) == (["new"], 8, 11)

    def test_reappend_after_reset_is_decoded(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(6, ["before"], 8, None)
            assert log.read_block(6) == (["before"], 8, None)
            log.reset()
            log.append_block(6, ["after!"], 8, None)
            assert log.read_block(6) == (["after!"], 8, None)


class TestTornWrites:
    """Crash-mid-write modeled as truncating the log, then reopening."""

    def _write_two_versions(self, log_path):
        """Block 5 twice (second frame last in the file), plus block 1."""
        with BlockLogFile(log_path) as log:
            log.append_block(1, ["keep"], 8, 99)
            log.append_block(5, ["v1"], 8, None)
            log.append_block(5, ["v2-to-tear"], 8, None)
            extent = log.frame_extent(5)
        return extent

    def test_truncate_mid_frame_detected(self, log_path):
        offset, length = self._write_two_versions(log_path)
        # Tear through the middle of the final frame: header survives.
        os.truncate(log_path, offset + HEADER_SIZE + 2)
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.read_block(5)
            # Undamaged blocks are still served.
            assert log.read_block(1) == (["keep"], 8, 99)

    def test_torn_frame_does_not_resurrect_older(self, log_path):
        """The damaged block must NOT silently fall back to its stale v1."""
        offset, _ = self._write_two_versions(log_path)
        os.truncate(log_path, offset + HEADER_SIZE + 2)
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.frame_extent(5)

    def test_torn_header_ends_scan(self, log_path):
        """Header itself cut: nothing identifies the frame, so the scan
        stops and the previous acknowledged state stays authoritative."""
        offset, _ = self._write_two_versions(log_path)
        os.truncate(log_path, offset + 3)
        with BlockLogFile(log_path) as log:
            # The torn v2 frame was never identifiable; v1 (acknowledged
            # and intact) is the newest surviving frame.
            assert log.read_block(5)[0] == ["v1"]
            assert log.read_block(1)[0] == ["keep"]

    def test_crc_mismatch_detected(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(2, ["payload"], 8, None)
            offset, length = log.frame_extent(2)
        with open(log_path, "r+b") as handle:
            handle.seek(offset + HEADER_SIZE + 1)
            byte = handle.read(1)
            handle.seek(offset + HEADER_SIZE + 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.read_block(2)

    def test_bad_magic_mid_log_is_unrecoverable(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["x"], 8, None)
        with open(log_path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"JUNK")
        with pytest.raises(BlockCorruption):
            BlockLogFile(log_path)


class TestTypedErrors:
    """No raw OSError ever escapes; everything is DiskFailure/IOFault."""

    def test_open_failure_is_disk_failure(self, tmp_path):
        with pytest.raises(DiskFailure):
            BlockLogFile(str(tmp_path))  # a directory is not a log

    def test_closed_log_raises_disk_failure(self, log_path):
        log = BlockLogFile(log_path)
        log.append_block(0, ["x"], 8, None)
        log.close()
        log.close()  # idempotent
        with pytest.raises(DiskFailure):
            log.read_block(0)
        with pytest.raises(DiskFailure):
            log.append_block(0, ["x"], 8, None)
        with pytest.raises(DiskFailure):
            log.sync()

    def test_all_typed_errors_are_iofaults(self, log_path):
        try:
            BlockLogFile(log_path + "/not-a-dir/x")
        except DiskFailure as exc:
            assert isinstance(exc, IOFault)
        else:  # pragma: no cover - the open must fail
            pytest.fail("expected DiskFailure")

    def test_short_pwrite_fails_without_acknowledge(self, log_path, monkeypatch):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["good"], 8, None)
            real_pwrite = os.pwrite
            monkeypatch.setattr(
                os, "pwrite", lambda fd, data, off: real_pwrite(
                    fd, data[: len(data) // 2], off
                )
            )
            with pytest.raises(DiskFailure):
                log.append_block(0, ["torn"], 8, None)
            monkeypatch.undo()
            # The half-written frame was never indexed: the previous
            # version of the block stays authoritative.
            assert log.read_block(0)[0] == ["good"]


class TestFsyncOrdering:
    def test_fsync_runs_before_acknowledge(self, log_path, monkeypatch):
        """A failed durability barrier must leave the index unchanged —
        the write is not acknowledged, so reads keep serving the previous
        frame."""
        with BlockLogFile(log_path, fsync=True) as log:
            log.append_block(4, ["durable"], 8, None)

            def broken_fsync(fd):
                raise OSError("simulated medium failure")

            monkeypatch.setattr(os, "fsync", broken_fsync)
            with pytest.raises(DiskFailure):
                log.append_block(4, ["lost"], 8, None)
            monkeypatch.undo()
            assert log.read_block(4)[0] == ["durable"]

    def test_fsync_true_appends_are_durable(self, log_path):
        with BlockLogFile(log_path, fsync=True) as log:
            _fill(log, [(i, [i], 8, None) for i in range(8)])
        with BlockLogFile(log_path) as log:
            assert log.block_indices == list(range(8))


class TestFrameCodec:
    def test_round_trip(self):
        frame = encode_frame(9, {"k": [1, 2]}, 24, 777)
        assert decode_frame(frame) == ({"k": [1, 2]}, 24, 777)

    def test_short_data_raises(self):
        frame = encode_frame(0, ["x"], 8, None)
        with pytest.raises(BlockCorruption):
            decode_frame(frame[: HEADER_SIZE - 4])
        with pytest.raises(BlockCorruption):
            decode_frame(frame[:-CRC_SIZE])

    def test_bad_magic_raises(self):
        frame = encode_frame(0, ["x"], 8, None)
        with pytest.raises(BlockCorruption):
            decode_frame(b"XXXX" + frame[len(MAGIC):])

    def test_unpicklable_payload_region_raises(self):
        frame = bytearray(encode_frame(0, ["x"], 8, None))
        # Scramble the payload but re-stamp a valid CRC: only the
        # unpickle step can catch this one.
        import zlib

        frame[HEADER_SIZE] ^= 0xFF
        body = bytes(frame[:-CRC_SIZE])
        frame[-CRC_SIZE:] = zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(BlockCorruption):
            decode_frame(bytes(frame))
