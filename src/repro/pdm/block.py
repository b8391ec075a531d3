"""Disk blocks.

A block has a fixed bit capacity (``B`` items of ``item_bits`` bits each in
the classical formulation).  Payloads are arbitrary Python objects; the
*structure* that owns the block declares how many bits its payload occupies,
and the block enforces the capacity.  This keeps the simulator honest about
the space claims of Theorem 6 without forcing every data structure through a
bit-serialisation layer.

Integrity: a block can carry a *checksum* — a 64-bit fingerprint of its
payload (:func:`payload_fingerprint`: a 64-bit BLAKE2b over one canonical,
type-tagged byte encoding of ``(used_bits, payload)``).  The encoding depends
on the payload's value alone — not on object identity, string interning or
``PYTHONHASHSEED`` — so the fingerprint is identical across processes,
platforms and a pickle round trip.  Checksums are maintained by the
machine when its ``checksums`` flag is on: every :meth:`Block.seal` after a
write records the fingerprint, and verify-on-read (:meth:`Block.verify`)
turns *silent* corruption — a payload the fault layer scrambled behind the
accountant's back — into a typed :class:`~repro.pdm.errors.BlockCorruption`.

Verification costs one fingerprint per block *version*, not per read: a
seal, or a verify that passed, records the :attr:`Block.version` it
checked, and a later verify of that same version returns at once.  This
rests on one invariant: a Block object's payload changes only through
:meth:`Block.store` / :meth:`Block.clear`, which draw a fresh, globally
unique version.  Everything else that produces different bytes builds a
*new* Block with an empty memo — the fault layer's scrambled copy (which
keeps the stale checksum), the file executor's per-frame Block and the
buffer pool's copies — so a stale seal is still fingerprinted and still
fails.  The memo keys on the version, never on the checksum value, since
the scrambled copy carries the old checksum.  Pinned by
``TestVerifyOncePerVersion`` (``tests/pdm/test_pdm_blocks_disks_memory.py``)
and ``TestCorruptionAfterVerify`` (``tests/faults/test_injection.py``).

A version names a content, not a Block object: the file executor hands
out a new Block per charged read, and when the frame's bytes are the
ones it decoded last time for that address the new Block carries the
earlier Block's version (:mod:`repro.pdm.executors.filebacked`).
Identical bytes decode to an identical payload, so "an unchanged version
proves an unchanged payload" still holds; each such Block still starts
with an empty verify memo.

Ints are encoded without ``str``: an int of up to 64 bits is a sign tag
and its 8-byte magnitude, and a wider int is a tag, a length and its whole
two's complement, so a corruption above bit 63 changes the fingerprint too
and an int of any width fingerprints (``str`` refuses more than 4,300
digits).
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from typing import Any, List, Optional

#: process-wide monotonic stamp source for :attr:`Block.version`.  Being
#: global (not per-block) makes a version globally unique: even when a
#: fault replaces a Block object wholesale, the replacement's stamp can
#: never collide with the stamp a cache recorded for the old object.
_next_version = itertools.count(1).__next__


class BlockOverflowError(Exception):
    """Raised when a payload is declared larger than the block capacity."""


# -- the canonical fingerprint encoding ---------------------------------------
#
# One byte tag per value, so no two differently tagged encodings can be
# confused; every length and count is 8 little-endian bytes.
_INT = b"+"  # 0 <= int < 2**64: tag + 8 bytes
_NEG = b"-"  # -2**64 < int < 0: tag + 8 bytes of its magnitude
_WIDE = b"W"  # any other int: tag + length + two's complement
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_STR = b"s"  # tag + length + UTF-8
_BYTES = b"b"  # bytes or bytearray: tag + length + the bytes
_SEQ = b"q"  # list or tuple: tag + count + each element
_REPR = b"r"  # anything else: tag + length + UTF-8 of its repr

#: ``tag + 8 little-endian bytes``: a small int, or a tag and a length.
_TAGGED = struct.Struct("<cQ").pack
_TWO_64 = 1 << 64


def _encode(obj: Any, out: List[bytes]) -> None:
    """Append the canonical encoding of ``obj`` to ``out``.

    The encoding depends on the value only — never on object identity,
    string interning or the hash seed — so equal payloads built from
    distinct objects, or unpickled in another process, encode equal.
    A plain non-negative int below ``2**64`` (most of a bucket) is tested
    first; ``bool`` is tested before any other ``int`` (it is an ``int``
    subclass), and an int never passes through ``str`` (which refuses
    very wide ints).
    """
    if type(obj) is int and 0 <= obj < _TWO_64:
        out.append(_TAGGED(_INT, obj))
    elif obj is None:
        out.append(_NONE)
    elif obj is True:
        out.append(_TRUE)
    elif obj is False:
        out.append(_FALSE)
    elif isinstance(obj, int):
        if obj.bit_length() <= 64:
            out.append(_TAGGED(_INT if obj >= 0 else _NEG, abs(obj)))
        else:
            size = obj.bit_length() // 8 + 1
            out.append(_TAGGED(_WIDE, size) + obj.to_bytes(size, "little", signed=True))
    elif isinstance(obj, (list, tuple)):
        out.append(_TAGGED(_SEQ, len(obj)))
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, str):
        data = obj.encode("utf-8", "surrogatepass")
        out.append(_TAGGED(_STR, len(data)) + data)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_TAGGED(_BYTES, len(obj)) + obj)
    else:
        # Any other payload object: a stable repr is part of its contract.
        data = repr(obj).encode("utf-8", "surrogatepass")
        out.append(_TAGGED(_REPR, len(data)) + data)


def payload_fingerprint(payload: Any, used_bits: int) -> int:
    """Deterministic 64-bit fingerprint of ``(payload, used_bits)``: a
    64-bit BLAKE2b of their canonical encoding."""
    out: List[bytes] = []
    _encode(used_bits, out)
    _encode(payload, out)
    digest = hashlib.blake2b(b"".join(out), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Block:
    """One disk block: a payload plus bit-granular capacity accounting."""

    __slots__ = (
        "capacity_bits", "payload", "used_bits", "checksum", "version",
        "verified_version",
    )

    def __init__(self, capacity_bits: int):
        if capacity_bits <= 0:
            raise ValueError(f"block capacity must be positive, got {capacity_bits}")
        self.capacity_bits = capacity_bits
        self.payload: Any = None
        self.used_bits = 0
        #: fingerprint of the payload at the last sealed write, or ``None``
        #: when the block has never been written with checksums enabled.
        self.checksum: Optional[int] = None
        #: globally-unique content stamp, refreshed by every :meth:`store`
        #: / :meth:`clear`.  Derived caches (the batch lookup's key
        #: columns, the :meth:`verify` memo) key on it: an unchanged
        #: version proves an unchanged payload.  The file executor may
        #: give a new Block the version of an earlier one whose frame had
        #: the same bytes (same content).  Disk writes store in place
        #: through this API, which refreshes the stamp; nothing else
        #: touches a block it has handed out — fault corruption stores a
        #: scrambled *copy* in the block's place, and the buffer pool's
        #: ``fill``/``put``/``refresh`` always install a new ``Block``
        #: (pinned by ``tests/pdm/test_cache.py``).
        self.version: int = _next_version()
        #: the :attr:`version` whose payload was last fingerprinted and
        #: found equal to :attr:`checksum` (by :meth:`seal` or a passed
        #: :meth:`verify`); ``None`` until then.
        self.verified_version: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        return self.payload is None and self.used_bits == 0

    @property
    def free_bits(self) -> int:
        return self.capacity_bits - self.used_bits

    def store(self, payload: Any, used_bits: int) -> None:
        """Replace the block contents, declaring the payload size in bits.

        Any previous checksum is invalidated; the machine re-seals after a
        checksummed write (:meth:`seal`).
        """
        if used_bits < 0:
            raise ValueError(f"used_bits must be non-negative, got {used_bits}")
        if used_bits > self.capacity_bits:
            raise BlockOverflowError(
                f"payload of {used_bits} bits exceeds block capacity of "
                f"{self.capacity_bits} bits"
            )
        self.payload = payload
        self.used_bits = used_bits
        self.checksum = None
        self.version = _next_version()

    def clear(self) -> None:
        self.payload = None
        self.used_bits = 0
        self.checksum = None
        self.version = _next_version()

    # -- integrity ----------------------------------------------------------

    def seal(self) -> int:
        """Record the fingerprint of the current contents and return it."""
        self.checksum = payload_fingerprint(self.payload, self.used_bits)
        self.verified_version = self.version
        return self.checksum

    def verify(self) -> bool:
        """``True`` iff the contents still match the sealed checksum.

        An unsealed block (``checksum is None`` — written before checksums
        were enabled, or never written) trivially verifies: there is no
        integrity claim to check.  A version already sealed or verified
        is not fingerprinted again (see the module docstring for why an
        unchanged version proves an unchanged payload).
        """
        if self.checksum is None or self.verified_version == self.version:
            return True
        if self.checksum != payload_fingerprint(self.payload, self.used_bits):
            return False
        self.verified_version = self.version
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(used={self.used_bits}/{self.capacity_bits} bits, "
            f"payload={self.payload!r})"
        )
