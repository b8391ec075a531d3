"""Machine-side fault injection primitives.

This module is the *mechanism* half of the fault subsystem: fault event
records, the :class:`FaultyDisk` wrapper, and the :class:`FaultInjector`
that the machine consults on every I/O batch.  The *policy* half — building
seeded schedules and running chaos workloads — lives in :mod:`repro.faults`,
outside the PDM layer, exactly as :mod:`repro.pdm.spans` holds the recorder
while :mod:`repro.obs` holds the analysis.  The split keeps the hot path
honest: a machine with no faults attached pays a single ``is None`` check,
and ``repro.pdm`` never imports upward.

Time is the machine's logical round clock (``stats.total_ios``): an event
window ``[start, end)`` is active whenever a batch begins at a round count
inside it.  No wall clock anywhere, so a fault schedule replays
bit-identically.

Event types
-----------
* :class:`DiskOutage` — the disk answers nothing in the window; reads and
  writes fail with :class:`~repro.pdm.errors.DiskFailure`.
* :class:`TransientWindow` — reads fail with
  :class:`~repro.pdm.errors.TransientIOError`, but the machine retries the
  failed sub-batch in later rounds (up to ``machine.retry_budget`` extra
  attempts); because retries advance the clock, short windows heal.
* :class:`SilentCorruption` — at its round, the payload of one block is
  deterministically scrambled *without* touching its checksum.  With
  ``machine.checksums`` on, verify-on-read surfaces this as
  :class:`~repro.pdm.errors.BlockCorruption`; with checksums off it is the
  nightmare case — plausible-looking wrong data.
* :class:`StragglerWindow` — the disk still answers, but every read batch
  touching it costs ``extra_rounds`` additional rounds, accounted under
  ``retry_ios`` (fault-attributable overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.bits.mix import splitmix64
from repro.pdm.block import Block
from repro.pdm.disk import Disk

Addr = Tuple[int, int]


# -- fault events -------------------------------------------------------------


@dataclass(frozen=True)
class DiskOutage:
    """Disk ``disk`` is unreachable for rounds ``start <= clock < end``."""

    disk: int
    start: int
    end: int


@dataclass(frozen=True)
class TransientWindow:
    """Reads of ``disk`` fail (retryably) for ``start <= clock < end``."""

    disk: int
    start: int
    end: int


@dataclass(frozen=True)
class SilentCorruption:
    """At the first batch with ``clock >= round``, scramble one block."""

    disk: int
    round: int
    block: int
    salt: int = 0


@dataclass(frozen=True)
class StragglerWindow:
    """Read batches touching ``disk`` in the window pay extra rounds."""

    disk: int
    start: int
    end: int
    extra_rounds: int = 1


FaultEvent = Any  # union of the four dataclasses above


# -- deterministic payload scrambling ----------------------------------------


def corrupt_value(value: Any, salt: int) -> Any:
    """Deterministically scramble one stored value, preserving its shape.

    Shape preservation matters: corruption must produce *plausible* garbage
    (a different key, a scrambled int field or fragment) rather than
    something that crashes the reader — that is what makes silent
    corruption dangerous and checksums worth their bits.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        flipped = value ^ (splitmix64(salt) or 1)
        return flipped if flipped != value else value + 1
    if isinstance(value, str):
        return value + format(splitmix64(salt) & 0xFFFF, "04x")
    if isinstance(value, tuple):
        if not value:
            return value
        idx = splitmix64(salt ^ 0x7F) % len(value)
        return tuple(
            corrupt_value(v, splitmix64(salt + i)) if i == idx else v
            for i, v in enumerate(value)
        )
    if isinstance(value, list):
        if not value:
            return value
        idx = splitmix64(salt ^ 0x7F) % len(value)
        return [
            corrupt_value(v, splitmix64(salt + i)) if i == idx else v
            for i, v in enumerate(value)
        ]
    return value  # unknown immutable shape: leave as-is (still counts as hit)


def corrupt_payload(payload: Any, salt: int) -> Any:
    """Scramble a block payload (a list of slot values, usually)."""
    if payload is None:
        return None
    if isinstance(payload, list):
        if not payload:
            return payload
        # Corrupt every non-empty slot: a media error rarely respects slot
        # boundaries, and this guarantees the block's contents changed.
        return [
            corrupt_value(v, splitmix64(salt ^ (0x9E37 + i)))
            for i, v in enumerate(payload)
        ]
    return corrupt_value(payload, salt)


# -- the faulty disk wrapper --------------------------------------------------


class FaultyDisk(Disk):
    """A :class:`~repro.pdm.disk.Disk` that knows its own fault schedule.

    Shares the wrapped disk's block storage (same dict object), so data
    written before attachment stays visible and :func:`detach_faults`
    restores the original disk without copying.  Direct ``block``/``peek``
    access (audits, ``block_at``) is *not* fault-checked — faults model the
    I/O channel, not the medium's existence; only the machine's charged
    read/write paths consult :meth:`status_at`.
    """

    __slots__ = ("outages", "transients", "stragglers")

    def __init__(self, disk_id: int, block_bits: int):
        super().__init__(disk_id, block_bits)
        self.outages: List[Tuple[int, int]] = []
        self.transients: List[Tuple[int, int]] = []
        self.stragglers: List[Tuple[int, int, int]] = []

    @classmethod
    def wrap(cls, disk: Disk) -> "FaultyDisk":
        fd = cls(disk.disk_id, disk.block_bits)
        fd._blocks = disk._blocks  # shared storage, not a copy
        fd.high_water = disk.high_water
        return fd

    def status_at(self, clock: int) -> str:
        """``"down"``, ``"transient"`` or ``"ok"`` at logical round ``clock``.

        An outage shadows an overlapping transient window — the stronger
        fault wins, deterministically.
        """
        for start, end in self.outages:
            if start <= clock < end:
                return "down"
        for start, end in self.transients:
            if start <= clock < end:
                return "transient"
        return "ok"

    def extra_rounds_at(self, clock: int) -> int:
        """Straggler penalty for a read batch starting at ``clock``."""
        extra = 0
        for start, end, rounds in self.stragglers:
            if start <= clock < end and rounds > extra:
                extra = rounds
        return extra

    def respawn(self, storage: Disk, clock: int) -> "FaultyDisk":
        """The wrapper for this slot after a rebuild onto ``storage``.

        The physical device was replaced, so fault windows already begun
        die with it; windows scheduled to *start* after ``clock`` belong
        to the slot's future (the chaos plan keeps applying to whatever
        disk sits there) and carry over.  Storage is shared with the
        spare, not copied — same contract as :meth:`wrap`."""
        fd = FaultyDisk(self.disk_id, self.block_bits)
        fd._blocks = storage._blocks
        fd.high_water = storage.high_water
        fd.outages = [(s, e) for s, e in self.outages if s > clock]
        fd.transients = [(s, e) for s, e in self.transients if s > clock]
        fd.stragglers = [
            (s, e, r) for s, e, r in self.stragglers if s > clock
        ]
        return fd


# -- the injector -------------------------------------------------------------


class FaultInjector:
    """Holds a machine's fault schedule and injection counters.

    Attach with :func:`attach_faults`; the machine's I/O paths then consult
    ``machine.faults`` (this object) once per batch.  Everything here is a
    pure function of the event list and the logical clock.
    """

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: List[FaultEvent] = list(events)
        #: pending corruption events, consumed in deterministic order
        self._corruptions: List[SilentCorruption] = [
            e for e in self.events if isinstance(e, SilentCorruption)
        ]
        #: injection counters by fault kind, for ``repro.obs`` collectors
        self.injected: Dict[str, int] = {  # detlint: guarded(machine-op) -- mutated only inside machine operations, which serialize per machine
            "disk_failure": 0,
            "transient": 0,
            "corruption": 0,
            "straggler_rounds": 0,
        }
        self._disks: List[FaultyDisk] = []

    def bind(self, disks: List[FaultyDisk]) -> None:
        """Distribute window events onto their disks' schedules."""
        self._disks = disks
        for event in self.events:
            if isinstance(event, DiskOutage):
                disks[event.disk].outages.append((event.start, event.end))
            elif isinstance(event, TransientWindow):
                disks[event.disk].transients.append((event.start, event.end))
            elif isinstance(event, StragglerWindow):
                disks[event.disk].stragglers.append(
                    (event.start, event.end, event.extra_rounds)
                )

    def count(self, kind: str, amount: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + amount

    def apply_due_corruption(self, clock: int, machine) -> None:
        """Fire every corruption event whose round has arrived.

        Replaces the stored block with a copy whose payload is scrambled
        *without* resealing, so a later checksummed read sees the mismatch.
        Copy-on-corrupt (rather than mutating the live object) means
        references handed out by earlier reads keep the bytes that were
        actually transferred — the semantics every physical backend has
        naturally, which the executor-equivalence suite relies on.
        Corrupting a never-written block is a no-op (there is nothing to
        scramble) but still consumes the event.
        """
        if not self._corruptions:
            return
        due = [c for c in self._corruptions if c.round <= clock]
        if not due:
            return
        self._corruptions = [c for c in self._corruptions if c.round > clock]
        cache = getattr(machine, "cache", None)
        for c in due:
            if not 0 <= c.disk < len(machine.disks):
                continue
            disk = machine.disks[c.disk]
            blk = disk.peek(c.block)
            if blk is None or blk.payload is None:
                continue
            scrambled = Block(blk.capacity_bits)
            scrambled.payload = corrupt_payload(
                blk.payload, splitmix64(c.salt ^ (c.disk << 20) ^ c.block)
            )
            scrambled.used_bits = blk.used_bits
            scrambled.checksum = blk.checksum  # stale seal: verify() fails
            disk._blocks[c.block] = scrambled
            if cache is not None:
                # A cached copy predates the corruption (payloads are
                # replaced, never mutated, so the pool still holds clean
                # data) — drop it so the next read re-fetches from the
                # medium and the checksum verdict matches the uncached
                # machine exactly.
                cache.invalidate((c.disk, c.block))
            executor = getattr(machine, "executor", None)
            if executor is not None and not executor.inline:
                # The scrambled payload must reach the physical medium
                # too, or a file-backed read would serve clean bytes and
                # the checksum verdict would diverge from the simulator.
                executor.sync_block((c.disk, c.block))
            self.count("corruption")

    @property
    def pending_corruptions(self) -> int:
        return len(self._corruptions)


# -- attach / detach ----------------------------------------------------------


def attach_faults(
    machine,
    events: Iterable[FaultEvent],
    *,
    checksums: bool = True,
    retry_budget: Optional[int] = None,
) -> FaultInjector:
    """Wire a fault schedule into ``machine`` and return the injector.

    Replaces the machine's disks with schedule-aware :class:`FaultyDisk`
    wrappers (sharing storage), sets ``machine.faults``, and — by default —
    turns on write-sealing/verify-on-read checksums, since degraded-mode
    recovery is only sound when corruption is detectable.

    Enabling checksums also seals every block already on the disks (a
    metadata-only scrub, no I/O charged): data written before the attach
    carries no checksum, and an unsealed block verifies trivially — later
    corruption of it would be returned as truth.
    """
    if machine.faults is not None:
        raise RuntimeError("machine already has a fault injector attached")
    cache = getattr(machine, "cache", None)
    if cache is not None:
        # Degraded-mode reasoning assumes the medium holds every datum:
        # flush the pool's dirty blocks (ordinary charged writes, before
        # the fault clock starts mattering) and run write-through while
        # the injector is attached.
        cache.flush(machine)
        cache.write_through = True
    injector = FaultInjector(events)
    for event in injector.events:
        disk = getattr(event, "disk", None)
        if disk is None or not 0 <= disk < machine.num_disks:
            raise ValueError(f"fault event targets invalid disk: {event!r}")
    wrapped = [FaultyDisk.wrap(d) for d in machine.disks]
    injector.bind(wrapped)
    machine.disks = wrapped
    machine.faults = injector
    if checksums:
        machine.checksums = True
        executor = getattr(machine, "executor", None)
        mirror = executor is not None and not executor.inline
        for disk in machine.disks:
            for index in sorted(disk._blocks):
                block = disk._blocks[index]
                if block.checksum is None:
                    block.seal()
                    if mirror:
                        # Re-mirror the freshly sealed frame so the
                        # on-medium checksum matches the logical one.
                        executor.sync_block((disk.disk_id, index))
    if retry_budget is not None:
        if retry_budget < 0:
            raise ValueError(f"retry budget must be >= 0, got {retry_budget}")
        machine.retry_budget = retry_budget
    return injector


def detach_faults(machine) -> None:
    """Remove the injector and restore plain disks (storage is shared, so
    all written data survives)."""
    if machine.faults is None:
        return
    plain = []
    for fd in machine.disks:
        d = Disk(fd.disk_id, fd.block_bits)
        d._blocks = fd._blocks
        d.high_water = fd.high_water
        plain.append(d)
    machine.disks = plain
    machine.faults = None
    cache = getattr(machine, "cache", None)
    if cache is not None:
        cache.write_through = False
