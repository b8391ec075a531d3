"""The executor seam: round planning above, physical transfer below.

:class:`~repro.pdm.machine.AbstractDiskMachine` owns every *policy*
decision — round packing and charging (:class:`~repro.pdm.machine.RoundPlan`),
fault status, retries and backoff, checksum verify, cache fills, health
observations, spans and traces — and keeps its in-memory ``disks`` as the
authoritative *logical* store.  A :class:`RoundExecutor` owns only the
*physical* transfer: given the addresses the machine decided to serve
this round, produce their bytes (``run_read``) or persist them
(``run_write``).

That split is what makes the executor-equivalence invariant hold **by
construction**: charged ``IOStats``/``OpCost``/``RoundPlan`` accounting
is computed entirely above the seam, so both executors — in-memory and
thread-per-disk over real files — produce bit-identical
accounting for the same operation sequence, healthy or under a fault
plan (asserted by ``tests/model`` and
``tests/integration/test_executor_parity.py``; see ``docs/executors.md``).

Physical consistency hooks (``sync_block``, ``resync_disk``) let the
uncharged mutation sites — the fault layer's in-place corruption and
seal-on-attach scrub, the recovery manager's rebuilt-spare swap — keep a
real-file image in step with the logical store without charging I/O.

Determinism: executors never read a wall clock (DET004); timing is only
taken through an *injected* ``clock`` callable, and only into the
observation side-channel (:class:`ExecutorObservations`), never into any
control path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.pdm.block import Block
from repro.pdm.errors import IOFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pdm.machine import AbstractDiskMachine

Addr = Tuple[int, int]

#: what ``run_read`` may say about one address: the block's current
#: contents, ``None`` for never-written, or a typed fault the physical
#: medium raised (torn frame, lost file) — routed into the machine's
#: per-address failure channel exactly like an injected fault.
ReadResult = Union[Block, None, IOFault]


class ExecutorObservations:
    """Wall-clock side channel of one executor: batch counts and measured
    transfer time, total and per disk lane.

    Only populated when the executor was given an injected ``clock``;
    with no clock every duration stays zero and the record is just batch
    and block counters.  Nothing deterministic may read this back — it
    feeds ``repro.obs`` collectors and ``BENCH_executors.json`` only.
    """

    __slots__ = (
        "read_batches", "write_batches", "blocks_read", "blocks_written",
        "read_wall_ns", "write_wall_ns", "per_disk_wall_ns",
    )

    def __init__(self, num_disks: int = 0):
        self.read_batches = 0
        self.write_batches = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.read_wall_ns = 0
        self.write_wall_ns = 0
        # Pre-sized per disk: each entry is updated only from that disk's
        # worker lane (index assignment on a fixed-size list, no resizing).
        self.per_disk_wall_ns: List[int] = [0] * num_disks  # detlint: guarded(disk-lane) -- slot i is written only by disk i's worker lane

    def note_read(self, blocks: int, wall_ns: int) -> None:
        self.read_batches += 1
        self.blocks_read += blocks
        self.read_wall_ns += wall_ns

    def note_write(self, blocks: int, wall_ns: int) -> None:
        self.write_batches += 1
        self.blocks_written += blocks
        self.write_wall_ns += wall_ns

    def note_disk(self, disk_id: int, wall_ns: int) -> None:
        self.per_disk_wall_ns[disk_id] += wall_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "read_batches": self.read_batches,
            "write_batches": self.write_batches,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "read_wall_ns": self.read_wall_ns,
            "write_wall_ns": self.write_wall_ns,
            "per_disk_wall_ns": list(self.per_disk_wall_ns),
        }


class RoundExecutor:
    """Physical backend of one machine.  Subclasses implement the
    transfer methods; everything here is the neutral default.

    ``inline`` declares that the physical store *is* the machine's
    logical ``disks`` (no second copy of the data exists), which lets the
    machine keep its zero-overhead read fast path and skip the physical
    write mirror entirely.  Only :class:`SimulatedExecutor` is inline.
    """

    name = "abstract"
    #: True when the logical store is the physical store (no mirroring).
    inline = False

    def __init__(self) -> None:
        self.machine: Optional["AbstractDiskMachine"] = None
        self.observations = ExecutorObservations()

    # -- lifecycle ---------------------------------------------------------

    def bind(self, machine: "AbstractDiskMachine") -> None:
        """Called once from the machine's constructor.  Subclasses open
        their physical resources (files, worker pools) here — the machine
        geometry (``num_disks``, ``block_bits``) is known at this point."""
        if self.machine is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a machine; "
                f"executors are one-per-machine (create a fresh one)"
            )
        self.machine = machine
        self.observations = ExecutorObservations(machine.num_disks)

    def flush(self) -> None:
        """Durability barrier: persist everything acknowledged so far."""

    def close(self) -> None:
        """Release physical resources (threads, descriptors).  Idempotent;
        the machine's ``close()`` delegates here."""

    # -- physical transfer -------------------------------------------------

    def run_read(self, addrs: Sequence[Addr]) -> Dict[Addr, ReadResult]:
        """Serve one attempt's worth of block fetches.

        ``addrs`` is exactly the set the machine decided to charge this
        attempt (fault triage already done); the result must cover every
        address.  Values are the block contents, ``None`` for a block
        never written, or a typed :class:`~repro.pdm.errors.IOFault` the
        medium raised for that address.
        """
        raise NotImplementedError

    def run_write(self, stored: Sequence[Tuple[Addr, Block]]) -> None:
        """Persist blocks the machine just committed to the logical store
        (post mirror-redirect: ``addr`` is always the physical slot)."""
        raise NotImplementedError

    # -- physical consistency hooks (uncharged) ----------------------------

    def sync_block(self, addr: Addr) -> None:
        """Re-mirror one block from the logical store after an uncharged
        in-place mutation (fault-layer corruption, seal-on-attach)."""

    def resync_disk(self, disk_id: int) -> None:
        """Rewrite one disk's physical image from its logical contents —
        called by :meth:`~repro.pdm.machine.AbstractDiskMachine.replace_disk`
        after a rebuilt spare is swapped in."""


class SimulatedExecutor(RoundExecutor):
    """The in-memory behavior the machine always had, behind the seam.

    The logical store is the physical store: reads peek the live
    :class:`~repro.pdm.disk.Disk` objects (returning the very same
    :class:`~repro.pdm.block.Block` instances as before the refactor) and
    writes are already complete once the machine stored them.
    """

    name = "simulated"
    inline = True

    def run_read(self, addrs: Sequence[Addr]) -> Dict[Addr, ReadResult]:
        disks = self.machine.disks
        return {addr: disks[addr[0]].peek(addr[1]) for addr in addrs}

    def run_write(self, stored: Sequence[Tuple[Addr, Block]]) -> None:
        pass  # the machine's store *is* the medium
