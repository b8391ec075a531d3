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

Determinism: executors never read a wall clock (DET004).  Wall time is
measured from outside, by :mod:`repro.obs.layers`, which wraps
``run_read``/``run_write`` and the per-disk block-log calls while a
tracer is installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

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
