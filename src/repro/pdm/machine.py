"""The parallel disk model machines.

Two cost models from the paper:

* :class:`ParallelDiskMachine` — the parallel disk model [19].  One parallel
  I/O touches at most one block on each of the ``D`` disks; a batch that
  needs ``m_i`` blocks from disk ``i`` costs ``max_i m_i`` rounds.
* :class:`ParallelDiskHeadMachine` — the parallel disk *head* model [1]: one
  disk with ``D`` independent heads, so any ``D`` blocks can be touched per
  round and a batch of ``m`` distinct blocks costs ``ceil(m / D)`` rounds.
  This model is strictly stronger; Section 5's non-striped expanders need it
  (or a factor-``d`` space blow-up from trivial striping).

Addresses are ``(disk_id, block_index)`` pairs.  Blocks are read and written
whole, as in the model.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bits.mix import derive
from repro.pdm.block import Block
from repro.pdm.cache import attach_cache
from repro.pdm.disk import Disk
from repro.pdm.errors import BlockCorruption, DiskFailure, IOFault, TransientIOError
from repro.pdm.executors.base import RoundExecutor, SimulatedExecutor
from repro.pdm.health import RetryPolicy
from repro.pdm.iostats import IOStats
from repro.pdm.memory import InternalMemory

Addr = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class RoundPlan:
    """An explicit parallel-round schedule for one batched I/O.

    ``rounds[r]`` lists the block requests served in parallel round ``r``.
    Under the PDM discipline every round touches at most one block per disk
    and at most ``D`` blocks total; under the head model only the ``D``-
    blocks-per-round cap applies.  The plan is what the model's batch cost
    *means* operationally: ``read_blocks`` charges exactly ``num_rounds``
    rounds for the same address set (asserted by the round-packing tests).
    """

    rounds: Tuple[Tuple[Addr, ...], ...]
    requested: int  # request count before dedup

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def unique_blocks(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def duplicates(self) -> int:
        """Requests collapsed by dedup — blocks shared between batch keys."""
        return self.requested - self.unique_blocks

    @property
    def max_width(self) -> int:
        return max((len(r) for r in self.rounds), default=0)

    def to_dict(self) -> Dict[str, int]:
        return {
            "requested": self.requested,
            "unique_blocks": self.unique_blocks,
            "duplicates": self.duplicates,
            "num_rounds": self.num_rounds,
            "max_width": self.max_width,
        }


def pack_rounds(
    addrs: Iterable[Addr],
    *,
    num_disks: int,
    distinct_disks: bool = True,
    salt: int = 0,
) -> RoundPlan:
    """Pack block requests into parallel I/O rounds.

    Duplicate addresses collapse first (a block is transferred once).  The
    surviving requests are ordered deterministically by a
    :func:`repro.bits.mix.derive`-keyed priority — the schedule depends only
    on the address set and ``salt``, never on caller iteration order — and
    placed greedily: each request goes to the earliest round that still has
    a free slot, where *conflict* means the round already touches the same
    disk (``distinct_disks=True``, the PDM rule) or is already ``num_disks``
    wide (both models).  A conflicting request spills to the next round.

    For the PDM the greedy schedule is optimal: disk ``i``'s requests
    occupy a prefix of rounds, so ``num_rounds`` equals the max per-disk
    multiplicity — exactly what :meth:`ParallelDiskMachine._batch_rounds`
    charges.  For the head model it yields ``ceil(unique / D)``.
    """
    if num_disks <= 0:
        raise ValueError(f"need at least one disk, got {num_disks}")
    requests = [tuple(a) for a in addrs]
    unique = list(dict.fromkeys(requests))
    ordered = sorted(unique, key=lambda a: (derive(salt, a[0], a[1]), a))
    rounds: List[List[Addr]] = []
    widths: List[int] = []
    next_free: Dict[int, int] = {}
    for addr in ordered:
        if distinct_disks:
            # Disk addr[0] occupies a prefix of rounds: its next free round
            # is tracked directly (spilling past every same-disk conflict).
            r = next_free.get(addr[0], 0)
            while r < len(rounds) and widths[r] >= num_disks:
                r += 1
            next_free[addr[0]] = r + 1
        else:
            r = 0
            while r < len(rounds) and widths[r] >= num_disks:
                r += 1
        while len(rounds) <= r:
            rounds.append([])
            widths.append(0)
        rounds[r].append(addr)
        widths[r] += 1
    return RoundPlan(
        rounds=tuple(tuple(r) for r in rounds),
        requested=len(requests),
    )


class AbstractDiskMachine:
    """Shared plumbing of the two cost models.

    Parameters
    ----------
    num_disks:
        ``D``, the number of storage devices (or heads).
    block_items:
        ``B``, the capacity of a block in data items.
    item_bits:
        Size of one data item in bits.  The paper assumes a data item is
        large enough to hold a pointer or a key; 64 is a realistic default.
    memory_words:
        Optional internal-memory capacity in items/words (``None`` means
        unbounded but still tracked).
    cache_blocks:
        Optional buffer-pool size in blocks (:mod:`repro.pdm.cache`).
        Charged against internal memory at ``B`` words per block, so with
        ``memory_words=M`` the pool is bounded by ``⌊M/B⌋`` blocks.  Cached
        reads cost zero I/Os; writes are absorbed and flushed on eviction.
        ``None`` (the default) keeps the machine uncached — the mode the
        theorem-bound monitors assume.
    executor:
        Optional physical backend (:mod:`repro.pdm.executors`).  ``None``
        means the in-memory :class:`~repro.pdm.executors.base.SimulatedExecutor`
        — exactly the pre-seam behavior.  The machine keeps every charge,
        plan, fault, cache and health decision regardless of executor, so
        ``IOStats``/``OpCost``/``RoundPlan`` accounting is bit-identical
        across backends (see ``docs/executors.md``).
    """

    model_name = "abstract"

    def __init__(
        self,
        num_disks: int,
        block_items: int,
        *,
        item_bits: int = 64,
        memory_words: int | None = None,
        cache_blocks: int | None = None,
        executor: RoundExecutor | None = None,
    ):
        if num_disks <= 0:
            raise ValueError(f"need at least one disk, got {num_disks}")
        if block_items <= 0:
            raise ValueError(f"block capacity must be positive, got {block_items}")
        if item_bits <= 0:
            raise ValueError(f"item size must be positive, got {item_bits}")
        self.num_disks = num_disks
        self.block_items = block_items
        self.item_bits = item_bits
        self.block_bits = block_items * item_bits
        self.disks: List[Disk] = [  # detlint: guarded(machine-op) -- slot swaps (attach/detach faults, replace_disk) happen only on the single machine-op lane; executor worker lanes never touch the list
            Disk(i, self.block_bits) for i in range(num_disks)
        ]
        self.stats = IOStats()
        self.memory = InternalMemory(capacity_words=memory_words)
        self._next_free: List[int] = [0] * num_disks
        #: optional :class:`repro.pdm.trace.TraceRecorder`
        self.tracer = None
        #: optional :class:`repro.pdm.spans.SpanRecorder` (hierarchical
        #: operation spans; attach with :func:`repro.pdm.spans.attach_spans`)
        self.spans = None
        #: optional :class:`repro.pdm.faults.FaultInjector` (attach with
        #: :func:`repro.pdm.faults.attach_faults`); same one-``None``-check
        #: hot-path contract as ``tracer``/``spans``
        self.faults = None
        #: optional :class:`repro.pdm.cache.BufferPool` (M-bounded write-back
        #: block cache; attach with :func:`repro.pdm.cache.attach_cache` or
        #: the ``cache_blocks`` constructor knob).  Same one-``None``-check
        #: hot-path contract as ``tracer``/``spans``/``faults``.
        self.cache = None
        #: when True, writes seal a per-block checksum and reads verify it
        #: (:mod:`repro.pdm.block`); silent corruption becomes a typed
        #: :class:`~repro.pdm.errors.BlockCorruption`
        self.checksums = False
        #: deterministic retry/backoff policy for transient read faults
        #: (:class:`repro.pdm.health.RetryPolicy`).  The default — three
        #: extra attempts, zero backoff — reproduces the legacy flat
        #: ``retry_budget`` accounting exactly.
        self.retry_policy = RetryPolicy()
        #: optional :class:`repro.pdm.health.HealthTracker` (attach with
        #: :func:`repro.pdm.health.attach_health`); same one-``None``-check
        #: contract as ``tracer``/``spans``/``faults``/``cache``
        self.health = None
        #: optional ``{disk_id: Disk}`` rebuild mirror installed by the
        #: recovery manager: while a failed disk rebuilds onto a spare,
        #: foreground writes addressed to it land on the spare (same
        #: charges) instead of raising, so the swapped-in disk is current
        self.rebuild_mirror = None
        # Shared stand-in for reads of never-written blocks: read paths use
        # Disk.peek so read-only probes don't materialise storage (and don't
        # inflate touched_blocks/footprint).  Callers treat read results as
        # immutable — all mutation goes through write_blocks.
        self._void_block = Block(self.block_bits)
        #: the physical backend (:mod:`repro.pdm.executors`); the logical
        #: store above stays authoritative, so every charge is computed
        #: before the executor moves a byte
        self.executor: RoundExecutor = (
            executor if executor is not None else SimulatedExecutor()
        )
        self.executor.bind(self)
        if cache_blocks is not None:
            attach_cache(self, cache_blocks)

    # -- retry policy ------------------------------------------------------

    @property
    def retry_budget(self) -> int:
        """Extra read attempts allowed per batch (compatibility view of
        :attr:`retry_policy`'s ``max_attempts``)."""
        return self.retry_policy.max_attempts

    @retry_budget.setter
    def retry_budget(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"retry budget must be non-negative, got {value}")
        self.retry_policy = replace(self.retry_policy, max_attempts=value)

    # -- repair attribution ------------------------------------------------

    @contextmanager
    def attribute_repair(self) -> Iterator[None]:
        """Charge every fresh round inside the block to ``repair_ios``.

        Rounds already attributed (``retry_ios`` from retries/backoff,
        ``repair_ios`` from explicit repair writes) are not double-
        counted.  This is how recovery work — rebuild reads, scrub
        passes, journal replays — stays inside the fault-attributable
        overhead channel: the theorem monitors subtract ``retry_ios`` and
        ``repair_ios`` from foreground budgets, so repair I/O metered
        through this context never inflates a charged-cost bound.
        """
        stats = self.stats
        before_total = stats.read_ios + stats.write_ios
        before_attr = stats.retry_ios + stats.repair_ios
        try:
            yield
        finally:
            fresh = (stats.read_ios + stats.write_ios - before_total) - (
                stats.retry_ios + stats.repair_ios - before_attr
            )
            if fresh > 0:
                stats.repair_ios += fresh

    def repair_read_blocks(
        self, addrs: Iterable[Addr]
    ) -> Tuple[Dict[Addr, Block], Dict[Addr, "IOFault"]]:
        """Degraded batch read whose rounds are charged as repair I/O —
        the read half of rebuild and scrubbing."""
        with self.attribute_repair():
            return self.read_blocks_degraded(addrs)

    def provision_spare(self, disk_id: int) -> Disk:
        """A fresh, empty disk with this machine's block geometry, taking
        over ``disk_id``'s address slot.  Provisioning itself is free; the
        rebuild that populates the spare pays for every block through
        ``write_blocks(repair=True)``."""
        return Disk(disk_id, self.block_bits)

    def replace_disk(self, disk_id: int, disk: Disk) -> Disk:
        """Install ``disk`` in address slot ``disk_id``, returning the
        displaced disk.

        The structural half of a rebuild's final swap (the recovery
        manager calls this with the respawned spare): the logical store
        changes hands without any charged I/O — every block on the spare
        was already paid for via ``write_blocks(repair=True)`` — and a
        physical backend rewrites the slot's image from the new logical
        contents so a real-file medium never serves the dead disk's data.
        """
        if not 0 <= disk_id < self.num_disks:
            raise IndexError(f"disk {disk_id} out of range")
        old = self.disks[disk_id]
        self.disks[disk_id] = disk
        executor = self.executor
        if not executor.inline:
            executor.resync_disk(disk_id)
        return old

    def close(self) -> None:
        """Release executor-held physical resources (worker threads, file
        descriptors).  A no-op for the in-memory simulator; file-backed
        machines must be closed before their directory goes away.
        Idempotent."""
        self.executor.close()

    # -- allocation ---------------------------------------------------------

    def allocate(self, disk_id: int, count: int) -> int:
        """Reserve ``count`` consecutive block indices on ``disk_id`` and
        return the first.  A bump allocator: structures sharing a machine
        claim disjoint address ranges up front."""
        if not 0 <= disk_id < self.num_disks:
            raise IndexError(f"disk {disk_id} out of range")
        if count < 0:
            raise ValueError(f"cannot allocate a negative count ({count})")
        start = self._next_free[disk_id]
        self._next_free[disk_id] = start + count
        return start

    # -- addressing -------------------------------------------------------

    @property
    def D(self) -> int:
        """Alias matching the paper's notation for the number of disks."""
        return self.num_disks

    @property
    def B(self) -> int:
        """Alias matching the paper's notation for the block capacity."""
        return self.block_items

    def _check_addr(self, addr: Addr) -> None:
        disk_id, block_index = addr
        if not 0 <= disk_id < self.num_disks:
            raise IndexError(
                f"disk {disk_id} out of range for machine with "
                f"{self.num_disks} disks"
            )
        if block_index < 0:
            raise IndexError(f"negative block index {block_index}")

    def block_at(self, addr: Addr) -> Block:
        """Direct block access *without* charging I/O (simulator internals,
        verification and space audits only — algorithms must go through
        :meth:`read_blocks` / :meth:`write_blocks`)."""
        self._check_addr(addr)
        disk_id, block_index = addr
        return self.disks[disk_id].block(block_index)

    def peek_at(self, addr: Addr) -> Block | None:
        """Like :meth:`block_at` but returns ``None`` for a never-written
        block instead of materialising it — audits and read-modify-write
        staging don't inflate ``touched_blocks``.

        With a buffer pool attached the pool is consulted first: under
        write-back the pool holds the logical latest contents, so staging
        and audits must see it.  The fault layer invalidates cached copies
        it corrupts, so a peek never resurrects pre-corruption data."""
        self._check_addr(addr)
        disk_id, block_index = addr
        cache = self.cache
        if cache is not None:
            blk = cache.peek((disk_id, block_index))
            if blk is not None:
                return blk
        return self.disks[disk_id].peek(block_index)

    # -- cost model (specialised by subclasses) ---------------------------

    def _batch_rounds(self, addrs: Sequence[Addr]) -> int:
        raise NotImplementedError

    def rounds_for_counts(self, unique_count: int, max_per_disk: int) -> int:
        """The model's round charge from batch *summary statistics* alone.

        Equals ``_batch_rounds(unique)`` for any deduplicated batch with
        ``unique_count`` blocks of which at most ``max_per_disk`` share a
        disk — the two numbers the kernels' probe planner already computes,
        so batch callers can price a fetch without rebuilding per-disk
        tallies in Python.
        """
        raise NotImplementedError

    def batch_rounds(self, addrs: Iterable[Addr]) -> int:
        """Rounds one batched transfer of ``addrs`` would charge (after
        dedup) — the model-specific cost without performing any I/O.
        Batch schedulers use this to price the sequential baseline."""
        unique = list(dict.fromkeys(tuple(a) for a in addrs))
        if not unique:
            return 0
        return self._batch_rounds(unique)

    def plan_rounds(
        self, addrs: Iterable[Addr], *, salt: int = 0
    ) -> RoundPlan:
        """Explicit round schedule for a batch under this cost model.

        ``plan_rounds(addrs).num_rounds == batch_rounds(addrs)`` always —
        the plan is the constructive witness of the charged cost."""
        return pack_rounds(
            addrs,
            num_disks=self.num_disks,
            distinct_disks=self.rounds_need_distinct_disks,
            salt=salt,
        )

    #: PDM rounds may touch each disk once; the head model has no such rule.
    rounds_need_distinct_disks = True

    def read_rounds(
        self, addrs: Iterable[Addr], *, salt: int = 0
    ) -> Tuple[Dict[Addr, Block], RoundPlan]:
        """Batched read returning both the blocks and the round schedule.

        Identical cost and fault semantics to :meth:`read_blocks`; the plan
        sees the raw request list so its ``duplicates`` counter reports the
        dedup savings to the batch dictionary operations.  With a buffer
        pool attached, cached addresses are dropped from the plan *before*
        rounds are packed — hits cost zero I/Os, so the schedule covers
        only the misses the machine will actually charge."""
        requests = [tuple(a) for a in addrs]
        plan = self.plan_rounds(self._plan_requests(requests), salt=salt)
        return self.read_blocks(requests), plan

    def read_rounds_degraded(
        self, addrs: Iterable[Addr], *, salt: int = 0
    ) -> Tuple[Dict[Addr, Block], Dict[Addr, "IOFault"], RoundPlan]:
        """Fault-tolerant :meth:`read_rounds`; see
        :meth:`read_blocks_degraded` for the ``(blocks, failures)`` split."""
        requests = [tuple(a) for a in addrs]
        plan = self.plan_rounds(self._plan_requests(requests), salt=salt)
        blocks, failures = self.read_blocks_degraded(requests)
        return blocks, failures, plan

    def _plan_requests(self, requests: List[Addr]) -> List[Addr]:
        """The requests a round plan should cover: all of them uncached,
        only the (to-be-charged) misses when a buffer pool is attached."""
        cache = self.cache
        if cache is None:
            return requests
        return [a for a in requests if not cache.contains(a)]

    # -- I/O operations ----------------------------------------------------

    def read_blocks(self, addrs: Iterable[Addr]) -> Dict[Addr, Block]:
        """Read a batch of blocks; charges the model-specific round count.

        Duplicate addresses are collapsed: a block is transferred once.
        Blocks never written read back empty without materialising storage
        (``Disk.peek``); treat results as immutable — all mutation goes
        through :meth:`write_blocks`.

        With a fault injector attached, transient errors are retried within
        ``retry_budget`` (charged as ``retry_ios``); any failure that
        survives retries raises its typed :class:`~repro.pdm.errors.IOFault`
        (first failing address in batch order).  Callers prepared to recover
        use :meth:`read_blocks_degraded` instead.
        """
        unique = list(dict.fromkeys(map(tuple, addrs)))
        blocks, failures = self.read_planned_blocks(unique)
        if failures:
            for addr in unique:
                fault = failures.get(addr)
                if fault is not None:
                    raise fault
        return dict(zip(unique, blocks))

    def read_blocks_degraded(
        self, addrs: Iterable[Addr]
    ) -> Tuple[Dict[Addr, Block], Dict[Addr, "IOFault"]]:
        """Fault-tolerant batch read: never raises for injected faults.

        Returns ``(blocks, failures)`` — every requested address appears in
        exactly one of the two maps.  Transients are retried exactly as in
        :meth:`read_blocks`; what remains in ``failures`` is what recovery
        logic (majority decode, choice fallback, read-repair) must absorb.
        """
        unique = list(dict.fromkeys(map(tuple, addrs)))
        blocks, failures = self.read_planned_blocks(unique)
        return {
            addr: blk
            for addr, blk in zip(unique, blocks)
            if addr not in failures
        }, failures

    def read_planned_blocks(
        self, unique: Sequence[Addr], rounds: Optional[int] = None
    ) -> Tuple[List[Block], Dict[Addr, "IOFault"]]:
        """The machine's one batch read: cache filter, then charged fetch.

        ``unique`` must be deduplicated; ``rounds``, when given, must equal
        ``_batch_rounds(unique)`` (batch callers price the plan with
        :meth:`rounds_for_counts`).  Returns the blocks aligned with
        ``unique`` and the failure map of the addresses still unreadable
        after retries, which hold the empty void block in the list.

        A buffer pool serves its hits first, in plan order.  Under a fault
        injector, corruption due this round lands before that, and a hit
        on a disk that is not ``"ok"`` now is dropped and re-requested: a
        cached copy never masks an outage or a transient window.  The
        misses go through :meth:`_read_batch` (rounds, faults, retries,
        checksums, the executor) and fill the pool.  With nothing attached
        the logical store is read directly, at the same charges.
        """
        if not unique:
            return [], {}
        cache = self.cache
        if (
            cache is None
            and self.faults is None
            and self.tracer is None
            and not self.checksums
            and self.executor.inline
        ):
            out: List[Block] = []
            disks = self.disks
            num_disks = self.num_disks
            void = self._void_block
            append = out.append
            for addr in unique:
                disk_id = addr[0]
                if not 0 <= disk_id < num_disks or addr[1] < 0:
                    self._check_addr(addr)
                blk = disks[disk_id]._blocks.get(addr[1])
                append(void if blk is None else blk)
            self.stats.read_ios += (
                self._batch_rounds(unique) if rounds is None else rounds
            )
            self.stats.blocks_read += len(unique)
            return out, {}
        num_disks = self.num_disks
        for addr in unique:
            if not 0 <= addr[0] < num_disks or addr[1] < 0:
                self._check_addr(addr)
        void = self._void_block
        if cache is None:
            fetched, failures = self._read_batch(unique)
            get = fetched.get
            return [get(addr, void) for addr in unique], failures
        faults = self.faults
        if faults is not None:
            clock = self.stats.total_ios
            faults.apply_due_corruption(clock, self)
            disks = self.disks
            for addr in unique:
                if disks[addr[0]].status_at(clock) != "ok":
                    cache.invalidate(addr)  # the filter below counts a miss
        blocks = cache.get_many(unique)
        misses = [i for i, blk in enumerate(blocks) if blk is None]
        if not misses:
            return blocks, {}
        fetched, failures = self._read_batch([unique[i] for i in misses])
        fill = cache.fill
        for i in misses:
            addr = unique[i]
            blk = fetched.get(addr)
            if blk is None or blk is void:
                blocks[i] = void
            else:
                blocks[i] = fill(addr, blk, self)
        return blocks, failures

    def _read_batch(
        self, unique: List[Addr]
    ) -> Tuple[Dict[Addr, Block], Dict[Addr, "IOFault"]]:
        faults = self.faults
        checksums = self.checksums
        blocks: Dict[Addr, Block] = {}
        failures: Dict[Addr, IOFault] = {}
        pending = list(unique)
        attempt = 0
        while pending:
            clock = self.stats.total_ios
            if faults is not None:
                faults.apply_due_corruption(clock, self)
            rounds = self._batch_rounds(pending)
            extra = 0
            if faults is not None:
                for d in dict.fromkeys(a[0] for a in pending):
                    e = self.disks[d].extra_rounds_at(clock)
                    if e > extra:
                        extra = e
                if extra:
                    faults.count("straggler_rounds", extra)
            self.stats.read_ios += rounds + extra
            # Straggler penalties and full re-issued rounds are real reads,
            # but retry_ios isolates them as fault-attributable overhead.
            self.stats.retry_ios += extra + (rounds if attempt > 0 else 0)
            if self.tracer is not None:
                self.tracer.record("read", pending, rounds + extra)
            health = self.health
            err_kinds: Dict[int, str] = {}
            retry: List[Addr] = []
            # Triage first (fault status is machine policy), then hand the
            # surviving addresses to the executor in one physical batch —
            # that single call is what a file-backed executor parallelises
            # across its per-disk lanes.
            statuses: Optional[List[str]] = None
            to_fetch: List[Addr] = pending
            if faults is not None:
                statuses = [self.disks[a[0]].status_at(clock) for a in pending]
                to_fetch = [
                    a for a, s in zip(pending, statuses) if s == "ok"
                ]
            physical = self.executor.run_read(to_fetch) if to_fetch else {}
            for i, addr in enumerate(pending):
                status = "ok" if statuses is None else statuses[i]
                if status == "down":
                    faults.count("disk_failure")
                    if health is not None:
                        err_kinds[addr[0]] = "down"
                    failures[addr] = DiskFailure(
                        f"disk {addr[0]} is down at round {clock}",
                        addrs=[addr], disk=addr[0], clock=clock,
                    )
                    continue
                if status == "transient":
                    faults.count("transient")
                    if health is not None:
                        err_kinds[addr[0]] = "transient"
                    if attempt < self.retry_budget:
                        retry.append(addr)
                    else:
                        failures[addr] = TransientIOError(
                            f"read of block {addr} still failing after "
                            f"{attempt} retries (budget "
                            f"{self.retry_budget})",
                            addrs=[addr], disk=addr[0], clock=clock,
                        )
                    continue
                blk = physical.get(addr)
                if blk is None:
                    blocks[addr] = self._void_block
                    continue
                if isinstance(blk, IOFault):
                    # The physical medium itself failed the address (torn
                    # frame, lost file) — routed like an injected fault.
                    if health is not None:
                        if isinstance(blk, DiskFailure):
                            err_kinds.setdefault(addr[0], "down")
                        elif isinstance(blk, TransientIOError):
                            err_kinds.setdefault(addr[0], "transient")
                        else:
                            err_kinds.setdefault(addr[0], "corruption")
                    failures[addr] = blk
                    continue
                if checksums and not blk.verify():
                    if health is not None:
                        err_kinds.setdefault(addr[0], "corruption")
                    failures[addr] = BlockCorruption(
                        f"block {addr} failed checksum verification at "
                        f"round {clock}",
                        addrs=[addr], disk=addr[0], clock=clock,
                    )
                    continue
                blocks[addr] = blk
            self.stats.blocks_read += len(to_fetch)
            if health is not None:
                # One observation per disk per round: errors by priority
                # (down > transient > corruption), a clean round otherwise.
                for d, kind in err_kinds.items():
                    health.observe_error(d, kind, clock)
                for d in dict.fromkeys(a[0] for a in pending):
                    if d not in err_kinds:
                        health.observe_ok(d, clock)
            pending = retry
            attempt += 1
            if pending:
                # Deterministic backoff: idle rounds advance the logical
                # clock (so a bounded transient window can expire before
                # the next attempt), charged entirely as retry overhead.
                wait = self.retry_policy.backoff_rounds(attempt - 1)
                if wait:
                    self.stats.read_ios += wait
                    self.stats.retry_ios += wait
        return blocks, failures

    def write_blocks(
        self, writes: Iterable[Tuple[Addr, Any, int]], *, repair: bool = False
    ) -> None:
        """Write a batch of blocks.

        Each element of ``writes`` is ``(addr, payload, used_bits)``.  The
        same rounds accounting as for reads applies.  Writing the same
        address twice in one batch is an error (the model writes blocks
        atomically once per round).

        With a fault injector attached, a write touching a down disk raises
        :class:`~repro.pdm.errors.DiskFailure` *before* any mutation or
        charge — the batch is atomic.  ``repair=True`` marks the rounds as
        ``repair_ios`` (read-repair after detected corruption).

        With a buffer pool attached (and healthy — no injector, so the pool
        is in write-back mode) the batch is *absorbed*: stored in the pool,
        marked dirty, charged nothing now.  The charged write happens when
        the entry is evicted or flushed, through :meth:`flush_writes`.  In
        write-through mode (fault injector attached) and for repair writes
        the disk write happens immediately and cached copies are refreshed.
        """
        writes = list(writes)
        if not writes:
            return
        addrs = [tuple(w[0]) for w in writes]
        if len(set(addrs)) != len(addrs):
            raise ValueError("duplicate address in one write batch")
        for addr in addrs:
            self._check_addr(addr)
        faults = self.faults
        if faults is not None:
            clock = self.stats.total_ios
            mirror = self.rebuild_mirror
            for addr in addrs:
                if self.disks[addr[0]].status_at(clock) == "down":
                    if mirror is not None and addr[0] in mirror:
                        # Disk is rebuilding onto a spare: the write is
                        # diverted there by flush_writes (same charges),
                        # keeping the swapped-in disk current.
                        continue
                    faults.count("disk_failure")
                    if self.health is not None:
                        self.health.observe_error(addr[0], "down", clock)
                    raise DiskFailure(
                        f"cannot write block {addr}: disk {addr[0]} is down "
                        f"at round {clock}",
                        addrs=[addr], disk=addr[0], clock=clock,
                    )
        cache = self.cache
        if cache is not None and not cache.write_through and not repair:
            spill: List[Tuple[Addr, Any, int]] = []
            absorbed: List[Addr] = []
            for addr, (_, payload, used_bits) in zip(addrs, writes):
                if cache.put(addr, payload, used_bits, self):
                    absorbed.append(addr)
                else:  # pool full of pinned entries: write through
                    spill.append((addr, payload, used_bits))
            if absorbed and self.tracer is not None:
                # Zero-round event keeps the write-footprint analysis
                # aware of every logical write, charged or absorbed.
                self.tracer.record("write", absorbed, 0)
            if spill:
                self.flush_writes(spill)
            return
        self.flush_writes(writes, repair=repair)
        if cache is not None:
            for addr, (_, payload, used_bits) in zip(addrs, writes):
                cache.refresh(addr, payload, used_bits)
            cache.stats.write_through_writes += len(writes)

    def flush_writes(
        self, writes: Iterable[Tuple[Addr, Any, int]], *, repair: bool = False
    ) -> None:
        """The charged-write core: rounds, counters, trace event, store
        (and seal under checksums).

        :meth:`write_blocks` funnels here after its validation and cache
        preamble, and the buffer pool calls it directly for evictions and
        :meth:`~repro.pdm.cache.BufferPool.flush` — routing those back
        through ``write_blocks`` would re-absorb the very blocks the pool
        is cleaning.
        """
        writes = list(writes)
        if not writes:
            return
        addrs = [tuple(w[0]) for w in writes]
        rounds = self._batch_rounds(addrs)
        self.stats.write_ios += rounds
        self.stats.blocks_written += len(addrs)
        if repair:
            self.stats.repair_ios += rounds
        if self.tracer is not None:
            self.tracer.record("write", addrs, rounds)
        checksums = self.checksums
        mirror = self.rebuild_mirror
        executor = self.executor
        stored: Optional[List[Tuple[Addr, Block]]] = (
            None if executor.inline else []
        )
        for (addr, payload, used_bits) in writes:
            target = self.disks[addr[0]]
            if mirror is not None:
                spare = mirror.get(addr[0])
                if spare is not None:
                    # Rebuild in progress: the live copy is the spare.
                    target = spare
            blk = target.block(addr[1])
            blk.store(payload, used_bits)
            if checksums:
                blk.seal()
            if stored is not None:
                # addr is the physical slot even when the live copy was
                # diverted to a rebuild spare — the medium's image always
                # tracks the slot the block will be served from.
                stored.append((addr, blk))
        if stored:
            executor.run_write(stored)

    # -- convenience single-block forms ------------------------------------

    def read_block(self, addr: Addr) -> Block:
        return self.read_blocks([addr])[addr]

    def write_block(self, addr: Addr, payload: Any, used_bits: int) -> None:
        self.write_blocks([(addr, payload, used_bits)])

    # -- space audit --------------------------------------------------------

    @property
    def touched_blocks(self) -> int:
        return sum(d.touched_blocks for d in self.disks)

    @property
    def used_bits(self) -> int:
        return sum(d.used_bits for d in self.disks)

    @property
    def footprint_bits(self) -> int:
        """Space by the external-memory convention: every block ever touched
        counts fully, whether or not its payload fills it."""
        return self.touched_blocks * self.block_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(D={self.num_disks}, B={self.block_items}, "
            f"ios={self.stats.total_ios})"
        )


class ParallelDiskMachine(AbstractDiskMachine):
    """The parallel disk model of Vitter and Shriver [19].

    One round moves at most one block per disk, so a batch costs the maximum
    per-disk multiplicity.  Striped layouts (one block per disk) therefore
    finish in a single parallel I/O — this is what makes the paper's striped
    expanders essential.
    """

    model_name = "parallel-disk"

    def _batch_rounds(self, addrs: Sequence[Addr]) -> int:
        per_disk: Dict[int, int] = {}
        for disk_id, _ in addrs:
            per_disk[disk_id] = per_disk.get(disk_id, 0) + 1
        return max(per_disk.values())

    def rounds_for_counts(self, unique_count: int, max_per_disk: int) -> int:
        return max_per_disk


class ParallelDiskHeadMachine(AbstractDiskMachine):
    """The parallel disk head model of Aggarwal and Vitter [1].

    One disk with ``D`` read/write heads: any ``D`` blocks per round
    regardless of placement, so a batch of ``m`` blocks costs
    ``ceil(m / D)``.  Strictly stronger than the PDM (and, as the paper
    notes, it "fails to model existing hardware" — we provide it because the
    non-striped expanders of Section 5 are only directly usable here).
    """

    model_name = "parallel-disk-head"
    rounds_need_distinct_disks = False

    def _batch_rounds(self, addrs: Sequence[Addr]) -> int:
        return math.ceil(len(addrs) / self.num_disks)

    def rounds_for_counts(self, unique_count: int, max_per_disk: int) -> int:
        return math.ceil(unique_count / self.num_disks)
