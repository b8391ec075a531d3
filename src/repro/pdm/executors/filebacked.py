"""Thread-per-disk executor over real files.

One :class:`~repro.fs.blockfile.BlockLogFile` per disk, one worker lane
per disk: a round's ``D`` transfers are dispatched concurrently, so the
PDM's charged unit of parallelism — one block per disk per round — is,
for the first time, *measured* wall-clock parallelism rather than only a
charged number.  Charged costs are untouched: the machine computes every
``IOStats``/``RoundPlan`` above the seam (see
:mod:`repro.pdm.executors.base`), and ``benchmarks/bench_executors.py``
gates that the parallel dispatch beats this executor's own sequential
(``workers=1``) mode while the charged rounds stay identical.

Threading/lane model (the PR 6 ``guarded()`` inventory, implemented):

* each :class:`BlockLogFile` and each ``per_disk_wall_ns`` slot is owned
  by its disk's lane — a batch dispatches at most one task per disk, so
  no two tasks ever share a file or a slot;
* the dispatch pool is a plain ``ThreadPoolExecutor`` sized ``D``;
  worker tasks carry their own disk tag, so lane attribution
  (``disk-lane:<tag>``) is correct regardless of which pool thread runs
  the task;
* result merging happens in the calling thread after every future
  resolves — the machine above never sees partial state.

Block versions: every charged read preads and CRC-checks its frame and
returns a new :class:`~repro.pdm.block.Block`, but the log decodes a
frame only when its bytes differ from the last ones decoded for that
index (:mod:`repro.fs.blockfile`).  When the log hands back the very
record it handed back last time, the new Block takes the earlier
Block's ``version`` in place of the fresh one ``Block.store`` drew.  So the batch lookup's key columns, keyed on
``(addr, version)``, hit here as on the simulated executor.  The Block
itself is always new, with an empty verify memo, so a checksummed read
still fingerprints its payload once.

Determinism: no wall clock is read here (DET004) — ``clock`` is an
injected callable (``repro.obs`` passes ``time.perf_counter_ns`` when
timing a run) and feeds only the observation side-channel.  The optional
``transfer_delay_ns`` knob models per-block device service time with a
GIL-releasing sleep so speedup measurements do not depend on the page
cache; it changes wall time only, never results or charges.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fs.blockfile import BlockLogFile, Record
from repro.pdm.block import Block, BlockOverflowError
from repro.pdm.errors import BlockCorruption, IOFault
from repro.pdm.executors.base import Addr, ReadResult, RoundExecutor


class FileExecutor(RoundExecutor):
    """Real-file backend: one block log and one worker lane per disk.

    Parameters
    ----------
    directory:
        Where the per-disk logs live.  Created if missing; always
        caller-provided (no hidden temp directories — the caller owns the
        lifetime, and tests point this at a ``tmp_path``).
    workers:
        ``None`` (default) dispatches one task per disk onto a
        ``D``-wide thread pool; ``1`` serves every disk sequentially in
        the calling thread — the honest single-lane baseline the speedup
        benchmark compares against.
    fsync:
        Passed through to every :class:`BlockLogFile`: fsync each append
        before acknowledging it.
    transfer_delay_ns:
        Modeled per-block device service time (sleep inside the disk's
        lane, GIL released).  Zero by default.
    clock:
        Injected nanosecond clock for the observation side-channel;
        ``None`` disables timing entirely.
    lane_factory:
        Injected lane context factory with the signature of
        :func:`repro.obs.wallclock.lane` — the executor never imports the
        observability layer (``repro.pdm`` sits below it).
    """

    name = "file"
    inline = False

    def __init__(
        self,
        directory: str,
        *,
        workers: Optional[int] = None,
        fsync: bool = False,
        transfer_delay_ns: int = 0,
        clock: Optional[Callable[[], int]] = None,
        lane_factory: Optional[Callable[..., object]] = None,
    ):
        super().__init__()
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.directory = str(directory)
        self.workers = workers
        self.fsync = fsync
        self.transfer_delay_ns = transfer_delay_ns
        self.clock = clock
        self.lane_factory = lane_factory
        self._logs: List[BlockLogFile] = []
        # Per disk: block index -> (the record last read for it, the
        # version its Block got).  Lane-owned like the disk's log.
        self._handed: List[Dict[int, Tuple[Record, int]]] = []  # detlint: guarded(disk-lane) -- slot i is touched only by disk i's lane
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def bind(self, machine) -> None:
        super().bind(machine)
        os.makedirs(self.directory, exist_ok=True)
        self._logs = [
            BlockLogFile(
                os.path.join(self.directory, f"disk-{i:03d}.blk"),
                fsync=self.fsync,
            )
            for i in range(machine.num_disks)
        ]
        self._handed = [{} for _ in range(machine.num_disks)]
        if self.workers != 1 and machine.num_disks > 1:
            width = machine.num_disks
            if self.workers is not None:
                width = min(width, self.workers)
            self._pool = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="disk-lane"
            )

    def flush(self) -> None:
        for log in self._logs:
            if not log.closed:
                log.sync()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for log in self._logs:
            log.close()

    # -- physical transfer -------------------------------------------------

    def _lane(self, disk_id: int):
        if self.lane_factory is None:
            return nullcontext()
        return self.lane_factory("disk-lane", tag=disk_id)

    def _serve_disk(
        self, disk_id: int, addrs: Sequence[Addr]
    ) -> Dict[Addr, ReadResult]:
        clock = self.clock
        out: Dict[Addr, ReadResult] = {}
        with self._lane(disk_id):
            t0 = clock() if clock is not None else 0
            if self.transfer_delay_ns:
                time.sleep(self.transfer_delay_ns * len(addrs) / 1e9)
            log = self._logs[disk_id]
            handed = self._handed[disk_id]
            block_bits = self.machine.block_bits
            for addr in addrs:
                try:
                    record = log.read_block(addr[1])
                except IOFault as fault:
                    out[addr] = fault
                    continue
                if record is None:
                    out[addr] = None
                    continue
                payload, used_bits, checksum = record
                blk = Block(block_bits)
                try:
                    blk.store(payload, used_bits)
                except (BlockOverflowError, ValueError) as exc:
                    out[addr] = BlockCorruption(
                        f"frame for block {addr} does not fit this "
                        f"machine's geometry: {exc}",
                        addrs=[addr], disk=addr[0],
                    )
                    continue
                last = handed.get(addr[1])
                if last is not None and last[0] is record:
                    # The log decoded nothing new: same bytes, so the
                    # same content keeps its version.
                    blk.version = last[1]
                else:
                    handed[addr[1]] = (record, blk.version)
                # Carry the on-medium seal; the machine verifies above the
                # seam, so a stale seal fails there exactly as in-memory.
                blk.checksum = checksum
                out[addr] = blk
            if clock is not None:
                self.observations.note_disk(disk_id, clock() - t0)
        return out

    def _store_disk(
        self, disk_id: int, entries: Sequence[Tuple[int, Block]]
    ) -> None:
        clock = self.clock
        with self._lane(disk_id):
            t0 = clock() if clock is not None else 0
            if self.transfer_delay_ns:
                time.sleep(self.transfer_delay_ns * len(entries) / 1e9)
            self._logs[disk_id].append_many(
                (index, blk.payload, blk.used_bits, blk.checksum)
                for index, blk in entries
            )
            if clock is not None:
                self.observations.note_disk(disk_id, clock() - t0)

    def run_read(self, addrs: Sequence[Addr]) -> Dict[Addr, ReadResult]:
        by_disk: Dict[int, List[Addr]] = {}
        for addr in addrs:
            by_disk.setdefault(addr[0], []).append(addr)
        clock = self.clock
        t0 = clock() if clock is not None else 0
        out: Dict[Addr, ReadResult] = {}
        if self._pool is None or len(by_disk) <= 1:
            for disk_id, items in by_disk.items():
                out.update(self._serve_disk(disk_id, items))
        else:
            futures = [
                self._pool.submit(self._serve_disk, disk_id, items)
                for disk_id, items in by_disk.items()
            ]
            for future in futures:
                out.update(future.result())
        self.observations.note_read(
            len(addrs), (clock() - t0) if clock is not None else 0
        )
        return out

    def run_write(self, stored: Sequence[Tuple[Addr, Block]]) -> None:
        by_disk: Dict[int, List[Tuple[int, Block]]] = {}
        for addr, blk in stored:
            by_disk.setdefault(addr[0], []).append((addr[1], blk))
        clock = self.clock
        t0 = clock() if clock is not None else 0
        if self._pool is None or len(by_disk) <= 1:
            for disk_id, entries in by_disk.items():
                self._store_disk(disk_id, entries)
        else:
            futures = [
                self._pool.submit(self._store_disk, disk_id, entries)
                for disk_id, entries in by_disk.items()
            ]
            for future in futures:
                future.result()
        self.observations.note_write(
            len(stored), (clock() - t0) if clock is not None else 0
        )

    # -- physical consistency hooks ----------------------------------------

    def sync_block(self, addr: Addr) -> None:
        blk = self.machine.disks[addr[0]].peek(addr[1])
        if blk is not None:
            self._logs[addr[0]].append_block(
                addr[1], blk.payload, blk.used_bits, blk.checksum
            )

    def resync_disk(self, disk_id: int) -> None:
        log = self._logs[disk_id]
        log.reset()
        disk = self.machine.disks[disk_id]
        log.append_many(
            (index, blk.payload, blk.used_bits, blk.checksum)
            for index, blk in sorted(disk._blocks.items())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "sequential" if self._pool is None else "thread-per-disk"
        return f"FileExecutor({self.directory!r}, {mode})"
