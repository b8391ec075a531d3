"""Durable per-disk block storage: an append-only frame log.

One :class:`BlockLogFile` is the physical image of one simulated disk for
the real-file executors (:mod:`repro.pdm.executors`).  Each write appends
a self-describing *frame* — header, pickled payload, CRC — and updates an
in-memory index ``block_index -> (offset, length)``; the newest frame for
an index shadows every older one, so overwrites never rewrite the file.
Reads use ``os.pread`` on a raw descriptor: no shared file position, so
one worker thread (or process) per disk can serve a round's transfers
concurrently without locking.

Durability contract (the gap this module closes):

* every OS-level error (``OSError`` from open/pread/pwrite/fsync) is
  wrapped into a typed :class:`~repro.pdm.errors.DiskFailure` — callers
  above the PDM layer never see a raw ``OSError``;
* a frame that fails its CRC, or was torn by a crash mid-write
  (``truncate`` through the middle of a frame models this), surfaces as
  :class:`~repro.pdm.errors.BlockCorruption` on read — detected, never
  silently decoded;
* with ``fsync=True`` every append is ``fsync``-ed *before* the index
  learns about the new frame, so an acknowledged write is on the medium
  (the in-memory index never points past what a crash could replay).

Decode once per content: every :meth:`BlockLogFile.read_block` still
does its ``pread`` and checks magic/version and the CRC, but it keeps
the bytes and the decoded record of the last frame it unpickled for each
block index.  A read whose bytes equal those returns the same record
object; any other frame (rewritten, scrambled, resynced) misses and is
decoded in full.  Identical bytes unpickle to an identical payload, so
keying on the bytes — not on the index or the offset, which an in-place
overwrite keeps — is what makes this sound.  The memo holds one entry
per block index and :meth:`BlockLogFile.reset` clears it.

The frame layout is fixed-endian (``<``) and versioned::

    magic "RBLK" | version u8 | flags u8 | reserved u16
    block_index i64 | used_bits i64 | checksum u64 | payload_len u32
    payload (pickle, payload_len bytes)
    crc32 u32   # over header + payload

``flags`` bit 0 records whether the block carried a seal
(:attr:`repro.pdm.block.Block.checksum` is ``None`` otherwise); the
64-bit seal itself rides in the header so verify-on-read above the
executor sees exactly what the logical block carried.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.pdm.errors import BlockCorruption, DiskFailure

MAGIC = b"RBLK"
VERSION = 1
_HEADER = struct.Struct("<4sBBHqqQI")
HEADER_SIZE = _HEADER.size
_CRC = struct.Struct("<I")
CRC_SIZE = _CRC.size
_FLAG_SEALED = 0x01
#: pinned pickle protocol: frames written by one interpreter must decode
#: in a worker process of the same run and in later sessions alike.
PICKLE_PROTOCOL = 4

#: index sentinel for a frame whose tail was torn off (crash mid-write):
#: the header survived, so we know *which* block is damaged and raise
#: BlockCorruption on its read instead of resurrecting the older frame.
_TORN = (-1, -1)

#: one decoded frame: ``(payload, used_bits, checksum)``.
Record = Tuple[Any, int, Optional[int]]


def encode_frame(
    block_index: int, payload: Any, used_bits: int, checksum: Optional[int]
) -> bytes:
    """One self-describing frame for ``block_index``."""
    body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
    flags = 0 if checksum is None else _FLAG_SEALED
    header = _HEADER.pack(
        MAGIC, VERSION, flags, 0, block_index, used_bits,
        checksum if checksum is not None else 0, len(body),
    )
    return header + body + _CRC.pack(zlib.crc32(header + body))


def _checked_body(data: bytes, where: str) -> Tuple[int, int, Optional[int]]:
    """Check one frame's length, magic/version and CRC; return
    ``(payload_end, used_bits, seal)``."""
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise BlockCorruption(
            f"torn frame at {where}: {len(data)} bytes is shorter than a "
            f"frame header"
        )
    magic, version, flags, _, index, used_bits, checksum, payload_len = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC or version != VERSION:
        raise BlockCorruption(
            f"bad frame magic/version at {where}: {magic!r} v{version}"
        )
    end = HEADER_SIZE + payload_len
    if len(data) < end + CRC_SIZE:
        raise BlockCorruption(
            f"torn frame at {where}: header claims {payload_len} payload "
            f"bytes but only {len(data) - HEADER_SIZE - CRC_SIZE} are present"
        )
    (crc,) = _CRC.unpack_from(data, end)
    if crc != zlib.crc32(data[:end]):
        raise BlockCorruption(f"frame CRC mismatch at {where}")
    seal = checksum if flags & _FLAG_SEALED else None
    return end, used_bits, seal


def _unpickled(data: bytes, end: int, where: str) -> Any:
    try:
        return pickle.loads(data[HEADER_SIZE:end])
    except Exception as exc:
        raise BlockCorruption(
            f"frame payload at {where} no longer unpickles: {exc!r}"
        ) from exc


def decode_frame(
    data: bytes, *, path: str = "?", block_index: Optional[int] = None
) -> Record:
    """``(payload, used_bits, checksum)`` of one frame, CRC-verified.

    Raises :class:`~repro.pdm.errors.BlockCorruption` for anything that is
    not a bit-exact frame: short reads, bad magic, CRC mismatch, or a
    payload that no longer unpickles.
    """
    where = f"block {block_index} of {path}" if block_index is not None else path
    end, used_bits, seal = _checked_body(data, where)
    return _unpickled(data, end, where), used_bits, seal


class BlockLogFile:
    """Append-only frame log holding one disk's blocks.

    Owned by one executor lane: appends and reads (which update the
    decode memo) both run there.  Reads are position-less ``os.pread``
    calls, so the lanes of different disks never share a file position.
    """

    def __init__(self, path: str, *, fsync: bool = False):
        self.path = str(path)
        self.fsync = fsync
        self._fd: Optional[int] = None
        # Newest frame per block: block_index -> (offset, frame_length),
        # or the _TORN sentinel for a frame damaged mid-write.  Owned by
        # the disk's executor lane; see Disk._blocks for the same contract.
        self._index: Dict[int, Tuple[int, int]] = {}  # detlint: guarded(disk-lane) -- one BlockLogFile per disk, owned by that disk's worker lane
        # Last decoded frame per block: block_index -> (frame bytes,
        # record).  A read whose bytes equal the memoised ones returns the
        # same record object instead of unpickling again; one entry per
        # index, replaced whole.
        self._decoded: Dict[int, Tuple[bytes, Record]] = {}  # detlint: guarded(disk-lane) -- same owner as _index
        self._tail = 0
        try:
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT, 0o644
            )
        except OSError as exc:
            raise DiskFailure(
                f"cannot open block log {self.path}: {exc}"
            ) from exc
        self._scan()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            os.close(fd)
        except OSError as exc:
            raise DiskFailure(
                f"cannot close block log {self.path}: {exc}"
            ) from exc

    def __enter__(self) -> "BlockLogFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> int:
        if self._fd is None:
            raise DiskFailure(f"block log {self.path} is closed")
        return self._fd

    # -- recovery scan -----------------------------------------------------

    def _scan(self) -> None:
        """Rebuild the index from the frames on disk.

        Walks headers only (CRCs are verified on read).  A final frame cut
        short by a crash is recorded as torn when its header survived —
        its block then raises :class:`BlockCorruption` on read — and
        silently ends the scan when even the header is gone (nothing
        identifies a block, so there is nothing to mark).
        """
        fd = self._require_open()
        try:
            size = os.fstat(fd).st_size
        except OSError as exc:
            raise DiskFailure(
                f"cannot stat block log {self.path}: {exc}"
            ) from exc
        offset = 0
        while offset < size:
            header = self._pread(HEADER_SIZE, offset)
            if len(header) < HEADER_SIZE:
                break  # torn inside the header: no index to blame
            magic, version, _, _, index, _, _, payload_len = (
                _HEADER.unpack_from(header)
            )
            if magic != MAGIC or version != VERSION:
                raise BlockCorruption(
                    f"bad frame magic at offset {offset} of {self.path}; "
                    f"the log is not recoverable past this point"
                )
            length = HEADER_SIZE + payload_len + CRC_SIZE
            if offset + length > size:
                self._index[index] = _TORN
                break
            self._index[index] = (offset, length)
            offset += length
        self._tail = offset

    # -- reads -------------------------------------------------------------

    def _pread(self, length: int, offset: int) -> bytes:
        fd = self._require_open()
        try:
            return os.pread(fd, length, offset)
        except OSError as exc:
            raise DiskFailure(
                f"read of {self.path} failed at offset {offset}: {exc}"
            ) from exc

    def frame_extent(self, block_index: int) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the newest frame for ``block_index``,
        ``None`` if never written.  Raises for a torn frame — process
        workers must not be handed an unreadable extent."""
        extent = self._index.get(block_index)
        if extent is None:
            return None
        if extent == _TORN:
            raise BlockCorruption(
                f"block {block_index} of {self.path} was torn by an "
                f"interrupted write"
            )
        return extent

    def read_block(self, block_index: int) -> Optional[Record]:
        """``(payload, used_bits, checksum)`` or ``None`` if never written.

        Every call preads the frame and checks its magic/version and CRC.
        Only the unpickle is memoised: a frame whose bytes equal the last
        ones decoded for this index returns that same record object, so
        callers must not mutate the payload in place.
        """
        extent = self.frame_extent(block_index)
        if extent is None:
            return None
        offset, length = extent
        data = self._pread(length, offset)
        where = f"block {block_index} of {self.path}"
        end, used_bits, seal = _checked_body(data, where)
        memo = self._decoded.get(block_index)
        if memo is not None and memo[0] == data:
            return memo[1]
        record = (_unpickled(data, end, where), used_bits, seal)
        self._decoded[block_index] = (data, record)
        return record

    @property
    def block_indices(self) -> List[int]:
        return sorted(self._index)

    # -- writes ------------------------------------------------------------

    def append_block(
        self,
        block_index: int,
        payload: Any,
        used_bits: int,
        checksum: Optional[int],
    ) -> None:
        self.append_many([(block_index, payload, used_bits, checksum)])

    def append_many(
        self, entries: Iterable[Tuple[int, Any, int, Optional[int]]]
    ) -> None:
        """Append one frame per entry, then (under ``fsync=True``) make
        them durable *before* the index acknowledges them."""
        fd = self._require_open()
        staged: List[Tuple[int, int, int]] = []
        offset = self._tail
        for block_index, payload, used_bits, checksum in entries:
            frame = encode_frame(block_index, payload, used_bits, checksum)
            try:
                written = os.pwrite(fd, frame, offset)
            except OSError as exc:
                raise DiskFailure(
                    f"write of block {block_index} to {self.path} failed: "
                    f"{exc}"
                ) from exc
            if written != len(frame):
                # A short pwrite is a torn frame on the medium: fail the
                # write loudly; the frame is not indexed, so the previous
                # version of the block stays authoritative.
                raise DiskFailure(
                    f"short write of block {block_index} to {self.path}: "
                    f"{written} of {len(frame)} bytes"
                )
            staged.append((block_index, offset, len(frame)))
            offset += len(frame)
        if not staged:
            return
        if self.fsync:
            self.sync()
        for block_index, off, length in staged:
            self._index[block_index] = (off, length)
        self._tail = offset

    def sync(self) -> None:
        """Durability barrier: flush the log to the medium."""
        fd = self._require_open()
        try:
            os.fsync(fd)
        except OSError as exc:
            raise DiskFailure(
                f"fsync of {self.path} failed: {exc}"
            ) from exc

    def reset(self) -> None:
        """Truncate to empty (a rebuilt disk's slate is rewritten whole)."""
        fd = self._require_open()
        try:
            os.ftruncate(fd, 0)
        except OSError as exc:
            raise DiskFailure(
                f"truncate of {self.path} failed: {exc}"
            ) from exc
        self._index.clear()
        self._decoded.clear()
        self._tail = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockLogFile({self.path!r}, blocks={len(self._index)}, "
            f"tail={self._tail})"
        )
