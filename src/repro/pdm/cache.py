"""The M-bounded buffer pool: internal memory holding disk blocks.

The PDM gives every algorithm an internal memory of ``M`` words for free,
but until this module existed the simulator charged a parallel I/O for
*every* block probe — even a re-read of a block fetched one operation ago.
:class:`BufferPool` is the missing piece: a deterministic write-back cache
of at most ``capacity_blocks`` blocks (each ``B`` words, so a pool of
``⌊M/B⌋`` blocks exactly fills the model's internal memory), charged
against the machine's :class:`~repro.pdm.memory.InternalMemory` at
attach time.

Semantics
---------
* **Hits cost zero I/Os.**  A read of a cached address is served from
  memory; the machine charges no rounds and moves no blocks.  Under the
  skewed request mixes of Section 1.2 (a few hot keys absorb most probes)
  this converts the bulk of the charged rounds into free memory hits.
* **Misses fetch-and-fill.**  An uncached address is read through the
  machine's ordinary charged path (checksums verify on the miss fetch,
  exactly as without a pool) and the block is installed in the pool,
  evicting the least-recently-used unpinned entry if the pool is full.
* **Writes are absorbed (write-back).**  ``write_blocks`` on a cached
  machine stores into the pool and marks the entry dirty; the charged
  write happens when the entry is evicted or :meth:`BufferPool.flush` is
  called — as an ordinary accounted write (rounds, ``blocks_written``,
  trace events).  :meth:`~repro.pdm.machine.AbstractDiskMachine.peek_at`
  consults the pool first, so audits and read-modify-write staging always
  see the logical latest contents.
* **Determinism.**  Eviction order is pure LRU over the deterministic
  access sequence; no clocks, no randomness.  Two identical runs evict
  identically (asserted by ``tests/pdm/test_cache.py``).
* **Faults invalidate.**  The fault layer models the I/O channel and the
  medium; a cached copy must never outlive what it claims to mirror.
  :meth:`~repro.pdm.faults.FaultInjector.apply_due_corruption` drops the
  cached copy of every block it scrambles, and a hit on a disk that is
  down (or transient) at the current round is discarded and re-fetched
  through the fault machinery — so degraded verdicts match the uncached
  path exactly.  While an injector is attached the pool runs
  *write-through* (``attach_faults`` flushes and flips the mode): every
  datum reaches the medium immediately, which keeps recovery reasoning
  identical to the uncached machine.

Pinning
-------
``pin(addr)`` exempts an entry from eviction (mid-operation staging that
must not be silently flushed); ``unpin`` releases it.  When every entry is
pinned the pool stops caching new fills rather than evicting a pinned
block — reads still work, they just stay charged.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.pdm.block import Block
from repro.pdm.memory import InternalMemory

Addr = Tuple[int, int]


class CacheStats:
    """Deterministic counters of one pool's lifetime."""

    __slots__ = (
        "hits",
        "misses",
        "fills",
        "evictions",
        "flushed_blocks",
        "invalidations",
        "absorbed_writes",
        "write_through_writes",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.flushed_blocks = 0
        self.invalidations = 0
        #: writes absorbed by the pool (deferred to eviction/flush)
        self.absorbed_writes = 0
        #: writes that went straight to disk (write-through mode / pinned-full)
        self.write_through_writes = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "flushed_blocks": self.flushed_blocks,
            "invalidations": self.invalidations,
            "absorbed_writes": self.absorbed_writes,
            "write_through_writes": self.write_through_writes,
            "hit_rate": self.hit_rate(),
        }


class _Entry:
    """One cached block: the pool-owned copy plus its bookkeeping bits and
    the derived value held with it (:meth:`BufferPool.hold_columns`)."""

    __slots__ = ("block", "dirty", "pinned", "column")

    def __init__(self, block: Block, dirty: bool = False) -> None:
        self.block = block
        self.dirty = dirty
        self.pinned = False
        self.column = None


class BufferPool:
    """A capacity-bounded, deterministic, write-back block cache.

    Create through the machine (``ParallelDiskMachine(..., cache_blocks=N)``)
    or :func:`attach_cache`; the pool charges
    ``capacity_blocks * block_items`` words against the machine's
    :class:`~repro.pdm.memory.InternalMemory` up front, so a pool larger
    than ``⌊M/B⌋`` blocks on an ``M``-word machine raises
    :class:`~repro.pdm.memory.InternalMemoryExceeded` — the model bound is
    enforced, not advisory.
    """

    __slots__ = (
        "capacity_blocks",
        "block_bits",
        "words_per_block",
        "memory",
        "write_through",
        "stats",
        "_entries",
        "_charged_words",
    )

    def __init__(
        self,
        capacity_blocks: int,
        *,
        block_bits: int,
        words_per_block: int,
        memory: Optional[InternalMemory] = None,
    ) -> None:
        if capacity_blocks <= 0:
            raise ValueError(
                f"cache capacity must be positive, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.block_bits = block_bits
        self.words_per_block = words_per_block
        self.memory = memory
        self.write_through = False
        self.stats = CacheStats()
        self._entries: "OrderedDict[Addr, _Entry]" = OrderedDict()  # detlint: guarded(pool-lock) -- LRU order mutates on every read; executor split must serialize the pool
        self._charged_words = 0
        if memory is not None:
            words = capacity_blocks * words_per_block
            memory.charge(words)  # raises InternalMemoryExceeded past ⌊M/B⌋
            self._charged_words = words

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: Addr) -> bool:
        return addr in self._entries

    def contains(self, addr: Addr) -> bool:
        """Presence test with no LRU bump and no hit/miss accounting (the
        round planner uses this to drop cached addresses from a plan)."""
        return addr in self._entries

    def cached_addresses(self) -> List[Addr]:
        """Addresses currently cached, LRU-first (deterministic)."""
        return list(self._entries)

    def dirty_addresses(self) -> List[Addr]:
        return [a for a, e in self._entries.items() if e.dirty]

    # -- the read side -------------------------------------------------------

    def get(self, addr: Addr) -> Optional[Block]:
        """Serve a hit (bumping LRU) or return ``None`` on a miss."""
        return self.get_many([addr])[0]

    def get_many(self, addrs: List[Addr]) -> List[Optional[Block]]:
        """The cache filter of a batch read, in order: the pool block of
        every hit (bumping LRU) and ``None`` for every miss.  The machine's
        read path asks once per requested address, which is what the
        hit/miss counters count."""
        entries = self._entries
        found = list(map(entries.get, addrs))
        hits = [addr for addr, entry in zip(addrs, found) if entry is not None]
        deque(map(entries.move_to_end, hits), maxlen=0)  # bumps, in order
        self.stats.hits += len(hits)
        self.stats.misses += len(found) - len(hits)
        return [None if entry is None else entry.block for entry in found]

    def peek(self, addr: Addr) -> Optional[Block]:
        """Like :meth:`get` but free: no LRU bump, no counters.  Used by
        ``machine.peek_at`` so audits don't perturb eviction order."""
        entry = self._entries.get(addr)
        return None if entry is None else entry.block

    def fill(self, addr: Addr, source: Block, machine) -> Block:
        """Install a clean copy of ``source`` after a miss fetch; returns
        the pool-owned block (shared payload — payloads are replaced, never
        mutated, by every writer in this repository).

        If the pool is full the LRU unpinned entry is evicted first (dirty
        evictions flush as ordinary charged writes on ``machine``); if
        every entry is pinned the fill is skipped and ``source`` itself is
        returned — the read stays correct, just uncached.
        """
        entry = self._entries.get(addr)
        if entry is not None:  # refresh (e.g. re-fetch after invalidation)
            entry.block = self._copy(source)
            entry.dirty = False
            entry.column = None
            self._entries.move_to_end(addr)
            return entry.block
        if not self._make_room(machine):
            return source
        owned = self._copy(source)
        self._entries[addr] = _Entry(owned)
        self.stats.fills += 1
        return owned

    # -- the write side ------------------------------------------------------

    def put(self, addr: Addr, payload, used_bits: int, machine) -> bool:
        """Absorb one write (write-back).  Returns ``False`` when the pool
        cannot take it (every entry pinned and full) — the caller then
        writes through to disk.

        The payload is validated against the block capacity here, exactly
        as a direct :meth:`~repro.pdm.block.Block.store` would.
        """
        block = Block(self.block_bits)
        block.store(payload, used_bits)
        entry = self._entries.get(addr)
        if entry is not None:
            entry.block = block
            entry.dirty = True
            entry.column = None
            self._entries.move_to_end(addr)
            self.stats.absorbed_writes += 1
            return True
        if not self._make_room(machine):
            return False
        new = _Entry(block, dirty=True)
        self._entries[addr] = new
        self.stats.fills += 1
        self.stats.absorbed_writes += 1
        return True

    def refresh(self, addr: Addr, payload, used_bits: int) -> None:
        """Update the cached copy of a block just written *through* to disk
        (write-through mode keeps hits coherent without going dirty)."""
        entry = self._entries.get(addr)
        if entry is None:
            return
        block = Block(self.block_bits)
        block.store(payload, used_bits)
        entry.block = block
        entry.dirty = False
        entry.column = None

    # -- values derived from resident blocks --------------------------------

    def held_columns(self, addrs: List[Addr], blocks: List[Block]) -> List:
        """The value :meth:`hold_columns` left with each address's entry,
        or ``None`` where the entry is gone or now holds another block
        than the one given.  No LRU bump, no counters."""
        return [
            entry.column if entry is not None and entry.block is blk else None
            for entry, blk in zip(map(self._entries.get, addrs), blocks)
        ]

    def hold_columns(
        self, addrs: List[Addr], blocks: List[Block], columns: List
    ) -> List[int]:
        """Keep a value derived from each resident block (the batch
        lookup's key column) with its entry, at no memory charge beyond
        the slot's.  It goes when the entry's block is replaced or leaves
        the pool.  Returns the positions whose block the pool does not
        hold."""
        lookup = self._entries.get
        missed = []
        for i, (addr, blk, column) in enumerate(zip(addrs, blocks, columns)):
            entry = lookup(addr)
            if entry is not None and entry.block is blk:
                entry.column = column
            else:
                missed.append(i)
        return missed

    # -- pinning -------------------------------------------------------------

    def pin(self, addr: Addr) -> None:
        entry = self._entries.get(addr)
        if entry is None:
            raise KeyError(f"cannot pin uncached block {addr}")
        entry.pinned = True

    def unpin(self, addr: Addr) -> None:
        entry = self._entries.get(addr)
        if entry is None:
            raise KeyError(f"cannot unpin uncached block {addr}")
        entry.pinned = False

    # -- eviction / flush / invalidation ------------------------------------

    def _copy(self, source: Block) -> Block:
        owned = Block(self.block_bits)
        owned.payload = source.payload
        owned.used_bits = source.used_bits
        owned.checksum = source.checksum
        return owned

    def _make_room(self, machine) -> bool:
        """Ensure one free slot; ``False`` when everything is pinned."""
        while len(self._entries) >= self.capacity_blocks:
            victim = None
            for addr, entry in self._entries.items():  # LRU-first order
                if not entry.pinned:
                    victim = addr
                    break
            if victim is None:
                return False
            self._evict(victim, machine)
        return True

    def _evict(self, addr: Addr, machine) -> None:
        entry = self._entries.pop(addr)
        self.stats.evictions += 1
        if entry.dirty:
            machine.flush_writes(
                [(addr, entry.block.payload, entry.block.used_bits)]
            )
            self.stats.flushed_blocks += 1

    def flush(self, machine) -> int:
        """Write every dirty entry back to disk as one ordinary charged
        batch (LRU-first order — deterministic).  Returns the number of
        blocks flushed.  Entries stay cached, now clean."""
        writes = []
        dirty_entries = []
        for addr, entry in self._entries.items():
            if entry.dirty:
                writes.append(
                    (addr, entry.block.payload, entry.block.used_bits)
                )
                dirty_entries.append(entry)
        if writes:
            machine.flush_writes(writes)
            for entry in dirty_entries:
                entry.dirty = False
            self.stats.flushed_blocks += len(writes)
        return len(writes)

    def invalidate(self, addr: Addr) -> bool:
        """Drop a cached copy *without* flushing — the on-disk state is (or
        must become) the truth.  The fault layer calls this when it
        corrupts a block or when a hit lands on a non-``ok`` disk; a
        subsequent read re-fetches through the charged, verified path."""
        entry = self._entries.pop(addr, None)
        if entry is None:
            return False
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += count
        return count

    def invalidate_disk(self, disk_id: int) -> int:
        """Drop every *clean* cached block of one disk without flushing.

        The health tracker calls this on every state transition: a disk
        healing from a transient window must not keep serving entries
        staged before the window, and a failed disk's stale copies must
        not survive into its rebuilt replacement.  Dirty entries are kept
        — under write-back the pool copy is the authoritative one, so
        dropping it would lose the write (with fault injection attached
        the pool runs write-through and every entry is clean).  Returns
        the number of entries dropped."""
        doomed = [
            addr
            for addr, entry in self._entries.items()
            if addr[0] == disk_id and not entry.dirty
        ]
        for addr in doomed:
            del self._entries[addr]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def release(self) -> None:
        """Return the pool's charged words to internal memory (detach)."""
        if self.memory is not None and self._charged_words:
            self.memory.release(self._charged_words)
            self._charged_words = 0

    def iter_entries(self) -> Iterator[Tuple[Addr, Block, bool, bool]]:
        """(addr, block, dirty, pinned) LRU-first — tests and exporters."""
        for addr, entry in self._entries.items():
            yield addr, entry.block, entry.dirty, entry.pinned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self._entries)}/{self.capacity_blocks} blocks, "
            f"dirty={len(self.dirty_addresses())}, "
            f"hit_rate={self.stats.hit_rate():.3f})"
        )


def max_cache_blocks(memory: InternalMemory, words_per_block: int) -> int:
    """The largest pool that still fits: ``⌊(M - used)/B⌋`` blocks (or a
    nominal large number when the memory is unbounded)."""
    if memory.capacity_words is None:
        return 1 << 20
    free = memory.capacity_words - memory.used_words
    return max(0, free // words_per_block)


def attach_cache(machine, capacity_blocks: int) -> BufferPool:
    """Wire a buffer pool into ``machine`` and return it.

    Charges ``capacity_blocks * B`` words against the machine's internal
    memory; raises :class:`~repro.pdm.memory.InternalMemoryExceeded` when
    that exceeds the configured ``M``.
    """
    if machine.cache is not None:
        raise RuntimeError("machine already has a buffer pool attached")
    pool = BufferPool(
        capacity_blocks,
        block_bits=machine.block_bits,
        words_per_block=machine.block_items,
        memory=machine.memory,
    )
    if machine.faults is not None:
        pool.write_through = True
    machine.cache = pool
    return pool


def detach_cache(machine) -> None:
    """Flush every dirty block, release the charged memory, and remove the
    pool.  All written data survives on disk."""
    pool = machine.cache
    if pool is None:
        return
    pool.flush(machine)
    pool.release()
    machine.cache = None
