"""The M-bounded buffer pool: invariants, durability, determinism, faults.

What the pool promises (see ``src/repro/pdm/cache.py``):

* occupancy never exceeds ``capacity_blocks``, and the capacity itself is
  charged against internal memory — a pool past ``⌊M/B⌋`` cannot even be
  constructed;
* write-back is durable: every absorbed write reaches the disk by
  eviction, explicit flush, or detach — as ordinary *charged* writes;
* hits cost zero I/Os and round plans cover only the misses;
* eviction order is deterministic (pure LRU, no clocks);
* the fault layer always wins: corruption invalidates cached copies, a
  peek never resurrects a block the fault layer scrambled on disk, and
  degraded verdicts match the uncached machine exactly.
"""

from __future__ import annotations

import pytest

from repro.pdm import create_executor
from repro.pdm.block import Block
from repro.pdm.cache import attach_cache, detach_cache, max_cache_blocks
from repro.pdm.faults import (
    DiskOutage,
    SilentCorruption,
    attach_faults,
    detach_faults,
)
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.memory import InternalMemoryExceeded

D = 4
B = 8


def _machine(cache_blocks=None, *, memory_words=None, num_disks=D):
    return ParallelDiskMachine(
        num_disks, B, memory_words=memory_words, cache_blocks=cache_blocks
    )


def _payload(tag):
    return [tag] * B


# -- capacity and the M bound --------------------------------------------------


class TestCapacityBound:
    def test_pool_larger_than_m_over_b_is_rejected(self):
        m = _machine(memory_words=4 * B)
        assert max_cache_blocks(m.memory, B) == 4
        with pytest.raises(InternalMemoryExceeded):
            attach_cache(m, 5)

    def test_pool_charges_internal_memory(self):
        m = _machine(memory_words=4 * B)
        before = m.memory.used_words
        pool = attach_cache(m, 3)
        assert m.memory.used_words == before + 3 * B
        detach_cache(m)
        assert m.memory.used_words == before
        assert pool.capacity_blocks == 3

    def test_occupancy_never_exceeds_capacity(self):
        m = _machine(cache_blocks=3)
        for i in range(20):
            addr = (i % D, i)
            m.write_blocks([(addr, _payload(i), 64)])
            m.read_blocks([addr, ((i + 1) % D, (i * 7) % 20)])
            assert len(m.cache) <= 3

    def test_double_attach_is_rejected(self):
        m = _machine(cache_blocks=2)
        with pytest.raises(RuntimeError):
            attach_cache(m, 2)


# -- write-back durability -----------------------------------------------------


class TestWriteBackDurability:
    def test_absorbed_writes_cost_zero_until_eviction(self):
        m = _machine(cache_blocks=2)
        m.write_blocks([((0, 0), _payload("a"), 64)])
        m.write_blocks([((1, 0), _payload("b"), 64)])
        assert m.stats.write_ios == 0
        assert m.stats.blocks_written == 0
        assert set(m.cache.dirty_addresses()) == {(0, 0), (1, 0)}
        # Third distinct block evicts the LRU dirty entry: a charged write.
        m.write_blocks([((2, 0), _payload("c"), 64)])
        assert m.stats.write_ios == 1
        assert m.stats.blocks_written == 1
        assert m.disks[0].peek(0).payload == _payload("a")

    def test_every_absorbed_write_survives_detach(self):
        m = _machine(cache_blocks=4)
        writes = {(i % D, i // D): _payload(i) for i in range(10)}
        for addr, payload in writes.items():
            m.write_blocks([(addr, payload, 64)])
        detach_cache(m)
        for (disk, index), payload in writes.items():
            assert m.disks[disk].peek(index).payload == payload
        # ... and the charged writes add up to every distinct block.
        assert m.stats.blocks_written == len(writes)

    def test_explicit_flush_keeps_entries_cached_and_clean(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 0), _payload("x"), 64)])
        flushed = m.cache.flush(m)
        assert flushed == 1
        assert m.cache.dirty_addresses() == []
        assert m.cache.contains((0, 0))
        assert m.disks[0].peek(0).payload == _payload("x")
        # The flush was an ordinary accounted write.
        assert m.stats.write_ios == 1

    def test_read_after_absorbed_write_sees_new_data_for_free(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 0), _payload("new"), 64)])
        before = m.stats.total_ios
        blocks = m.read_blocks([(0, 0)])
        assert blocks[(0, 0)].payload == _payload("new")
        assert m.stats.total_ios == before  # hit: zero charged rounds


# -- hits, misses, and round plans ---------------------------------------------


class TestChargingSemantics:
    def test_hits_cost_zero_rounds(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 5), _payload(5), 64)])
        m.cache.flush(m)
        before = m.stats.total_ios
        m.read_blocks([(0, 5)])
        m.read_blocks([(0, 5)])
        assert m.stats.total_ios == before
        assert m.cache.stats.hits == 2

    def test_round_plan_covers_only_misses(self):
        m = _machine(cache_blocks=4)
        for i in range(3):
            m.write_blocks([((i, 0), _payload(i), 64)])
        m.cache.flush(m)
        # (0,0).. (2,0) cached; (3,0) is not.
        m.write_blocks([((3, 0), _payload(3), 64)])
        m.cache.invalidate((3, 0))
        before = m.stats.total_ios
        addrs = [(0, 0), (1, 0), (2, 0), (3, 0)]
        plan = m.plan_rounds(m._plan_requests(addrs))
        blocks = m.read_blocks(addrs)
        assert len(blocks) == 4
        assert plan.num_rounds == 1  # only the miss is scheduled
        assert m.stats.total_ios - before == plan.num_rounds

    def test_uncached_and_cached_reads_agree(self):
        plain = _machine()
        cached = _machine(cache_blocks=2)
        for m in (plain, cached):
            for i in range(6):
                m.write_blocks([((i % D, i // D), _payload(i), 64)])
        if cached.cache is not None:
            cached.cache.flush(cached)
        addrs = [(i % D, i // D) for i in range(6)] * 2
        a = plain.read_blocks(addrs)
        b = cached.read_blocks(addrs)
        assert {k: v.payload for k, v in a.items()} == {
            k: v.payload for k, v in b.items()
        }


# -- deterministic eviction ----------------------------------------------------


class TestDeterminism:
    def _drive(self):
        m = _machine(cache_blocks=3)
        trace = []
        for i in range(30):
            addr = ((i * 5) % D, (i * 3) % 7)
            if i % 3 == 0:
                m.write_blocks([(addr, _payload(i), 64)])
            else:
                m.read_blocks([addr])
            trace.append(tuple(m.cache.cached_addresses()))
        return trace, m.cache.stats.as_dict(), m.stats.total_ios

    def test_identical_runs_evict_identically(self):
        t1, s1, io1 = self._drive()
        t2, s2, io2 = self._drive()
        assert t1 == t2
        assert s1 == s2
        assert io1 == io2

    def test_lru_order_is_access_order(self):
        m = _machine(cache_blocks=2)
        m.write_blocks([((0, 0), _payload("a"), 64)])
        m.write_blocks([((1, 0), _payload("b"), 64)])
        m.read_blocks([(0, 0)])  # bump (0,0) to MRU
        m.write_blocks([((2, 0), _payload("c"), 64)])  # evicts (1,0), the LRU
        assert m.cache.contains((0, 0))
        assert not m.cache.contains((1, 0))


# -- pinning -------------------------------------------------------------------


class TestPinning:
    def test_pinned_entries_survive_pressure_and_writes_spill(self):
        m = _machine(cache_blocks=2)
        m.write_blocks([((0, 0), _payload("a"), 64)])
        m.write_blocks([((1, 0), _payload("b"), 64)])
        m.cache.pin((0, 0))
        m.cache.pin((1, 0))
        before = m.stats.write_ios
        m.write_blocks([((2, 0), _payload("c"), 64)])  # pool full+pinned
        assert m.stats.write_ios > before  # wrote through
        assert m.disks[2].peek(0).payload == _payload("c")
        assert m.cache.contains((0, 0)) and m.cache.contains((1, 0))
        m.cache.unpin((0, 0))
        m.write_blocks([((3, 0), _payload("d"), 64)])  # (0,0) now evictable
        assert not m.cache.contains((0, 0))


# -- faults: invalidation, write-through, peek parity --------------------------


class TestFaultParity:
    def test_corruption_invalidates_cached_copy(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 0), _payload("clean"), 64)])
        m.cache.flush(m)
        m.read_blocks([(0, 0)])  # cached and clean
        clock = m.stats.total_ios
        attach_faults(
            m, [SilentCorruption(disk=0, round=clock, block=0, salt=1)]
        )
        # The checksummed re-read must see the scrambled medium (a typed
        # corruption failure), not the stale clean copy the pool held.
        blocks, failures = m.read_blocks_degraded([(0, 0)])
        assert (0, 0) in failures
        assert m.cache.stats.invalidations >= 1

    def test_peek_never_resurrects_corrupted_block(self):
        """Satellite regression: after the injector scrambles a block on
        disk, ``peek_at`` must show the scrambled medium — not a stale
        clean copy the pool happened to hold."""
        cached = _machine(cache_blocks=4)
        plain = _machine()
        for m in (cached, plain):
            m.write_blocks([((0, 0), _payload("clean"), 64)])
            if m.cache is not None:
                m.cache.flush(m)
            m.read_blocks([(0, 0)])  # cached machine now holds a copy
            clock = m.stats.total_ios
            attach_faults(
                m, [SilentCorruption(disk=0, round=clock, block=0, salt=7)]
            )
            m.read_blocks([(1, 0)])  # any read fires the due corruption
        want = plain.peek_at((0, 0)).payload
        got = cached.peek_at((0, 0)).payload
        assert got == want
        assert got != _payload("clean")

    def test_outage_hit_is_discarded_and_matches_uncached(self):
        cached = _machine(cache_blocks=4)
        plain = _machine()
        results = {}
        for name, m in (("cached", cached), ("plain", plain)):
            m.write_blocks([((0, 0), _payload("v"), 64)])
            if m.cache is not None:
                m.cache.flush(m)
            m.read_blocks([(0, 0)])
            clock = m.stats.total_ios
            attach_faults(
                m, [DiskOutage(disk=0, start=clock, end=clock + 100)]
            )
            blocks, failures = m.read_blocks_degraded([(0, 0), (1, 0)])
            results[name] = (
                sorted(blocks), sorted(failures),
                {a: type(f).__name__ for a, f in failures.items()},
            )
        assert results["cached"] == results["plain"]
        assert (0, 0) in dict(results["cached"][2].items())

    def test_attach_faults_flips_write_through_and_back(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 0), _payload("a"), 64)])
        assert m.cache.dirty_addresses() == [(0, 0)]
        attach_faults(m, [DiskOutage(disk=3, start=1000, end=1001)])
        # Attaching flushed the pool and flipped to write-through.
        assert m.cache.write_through
        assert m.cache.dirty_addresses() == []
        assert m.disks[0].peek(0).payload == _payload("a")
        before = m.stats.write_ios
        m.write_blocks([((1, 0), _payload("b"), 64)])
        assert m.stats.write_ios > before  # charged immediately
        detach_faults(m)
        assert not m.cache.write_through

    def test_degraded_dictionary_verdicts_match_uncached(self):
        """End-to-end: the basic dictionary under a dead disk answers
        identically with and without a pool."""
        from repro.core.basic_dict import BasicDictionary
        from repro.faults.plan import FaultPlan

        def build(cache_blocks):
            m = ParallelDiskMachine(8, 16, cache_blocks=cache_blocks)
            d = BasicDictionary(
                m, universe_size=1 << 16, capacity=128, degree=8, seed=5
            )
            keys = [(7 + i * 97) % (1 << 16) for i in range(48)]
            for k in keys:
                d.upsert(k, f"v{k}")
            return m, d, keys

        outcomes = {}
        for tag, cb in (("plain", None), ("cached", 16)):
            m, d, keys = build(cb)
            attach_faults(
                m, FaultPlan.kill_disks([0, 1], num_disks=8).events
            )
            per_key = {}
            for k in keys:
                try:
                    r = d.lookup(k)
                    per_key[k] = ("ok", r.found, r.value)
                except Exception as exc:
                    per_key[k] = ("err", type(exc).__name__)
            outcomes[tag] = per_key
        assert outcomes["cached"] == outcomes["plain"]
        assert any(v[0] == "err" for v in outcomes["plain"].values())


# -- peek coherence ------------------------------------------------------------


class TestPeekCoherence:
    def test_peek_sees_absorbed_write_before_flush(self):
        m = _machine(cache_blocks=4)
        m.write_blocks([((0, 0), _payload("mem-only"), 64)])
        assert m.disks[0].peek(0) is None  # not on disk yet
        assert m.peek_at((0, 0)).payload == _payload("mem-only")

    def test_peek_does_not_perturb_lru(self):
        m = _machine(cache_blocks=2)
        m.write_blocks([((0, 0), _payload("a"), 64)])
        m.write_blocks([((1, 0), _payload("b"), 64)])
        m.peek_at((0, 0))  # no bump: (0,0) stays LRU
        m.write_blocks([((2, 0), _payload("c"), 64)])
        assert not m.cache.contains((0, 0))
        assert m.cache.contains((1, 0))

    def test_peek_of_uncached_address_falls_back_to_disk(self):
        m = _machine(cache_blocks=2)
        m.write_blocks([((0, 0), _payload("z"), 64)])
        m.cache.flush(m)
        m.cache.invalidate((0, 0))
        assert m.peek_at((0, 0)).payload == _payload("z")


# -- handed-out blocks and the values held with them -----------------------------


def _state(blk):
    payload = None if blk.payload is None else list(blk.payload)
    return payload, blk.used_bits, blk.checksum, blk.version


class TestHandedOutBlocksNeverChange:
    """``Block.version`` keys the batch lookup's key columns.  That is
    sound only because no layer changes a block it has handed out: the
    pool's ``fill``/``put``/``refresh`` install new blocks, fault
    corruption stores a scrambled copy in the block's place, and the file
    executor's Blocks share a decoded payload only while its bytes are
    unchanged."""

    def test_pool_fill_put_and_refresh(self):
        m = _machine(cache_blocks=2)
        addr = (0, 0)
        handed = []

        def hand_out():
            blk = m.read_blocks([addr])[addr]
            handed.append((blk, _state(blk)))

        m.write_blocks([(addr, _payload("a"), 64)])
        hand_out()  # a hit on the absorbed write
        m.write_blocks([(addr, _payload("b"), 64)])  # put over it
        hand_out()
        m.cache.flush(m)
        m.cache.invalidate(addr)
        hand_out()  # a miss: fill
        m.cache.fill(addr, m.disks[0].peek(0), m)  # fill over it
        hand_out()
        attach_faults(m, [])  # write-through from here on
        hand_out()
        m.write_blocks([(addr, _payload("c"), 64)])  # refresh
        assert m.read_blocks([addr])[addr].payload == _payload("c")
        for blk, state in handed:
            assert _state(blk) == state

    @pytest.mark.parametrize("cache_blocks", [None, 2])
    def test_file_executor_reads_and_writes(self, tmp_path, cache_blocks):
        # The file executor's log decodes a frame once per content, so
        # reads of unchanged bytes share one payload object.
        m = ParallelDiskMachine(
            D, B, cache_blocks=cache_blocks,
            executor=create_executor("file", directory=str(tmp_path)),
        )
        try:
            addr = (0, 0)
            handed = []

            def hand_out():
                blk = m.read_blocks([addr])[addr]
                handed.append((blk, _state(blk)))

            m.write_blocks([(addr, _payload("a"), 64)])
            hand_out()
            hand_out()
            assert handed[0][0].payload is handed[1][0].payload
            m.write_blocks([(addr, _payload("b"), 64)])
            hand_out()
            m.write_blocks([(addr, _payload("a"), 64)])
            hand_out()
            attach_faults(m, [])
            hand_out()
            m.write_blocks([(addr, _payload("c"), 64)])
            hand_out()
            assert handed[-1][0].payload == _payload("c")
            for blk, state in handed:
                assert _state(blk) == state
        finally:
            m.close()

    def test_corruption_replaces_the_stored_block(self):
        m = _machine()
        m.write_blocks([((0, 0), _payload("x"), 64)])
        clock = m.stats.total_ios
        attach_faults(
            m, [SilentCorruption(disk=0, round=clock + 1, block=0, salt=5)]
        )
        blk = m.read_blocks([(0, 0)])[(0, 0)]  # before the corruption round
        state = _state(blk)
        _, failures = m.read_blocks_degraded([(0, 0)])
        assert (0, 0) in failures  # the scrambled copy fails its checksum
        assert m.disks[0].peek(0) is not blk
        assert _state(blk) == state


class TestHeldColumns:
    """A value derived from a resident block (the batch lookup's key
    column) rides on its pool entry: it costs no internal memory, and it
    is gone once the entry's block is replaced or leaves the pool."""

    def test_held_only_for_the_block_the_pool_holds(self):
        m = _machine(cache_blocks=2)
        pool = m.cache
        m.write_blocks(
            [((0, 0), _payload("a"), 64), ((1, 0), _payload("b"), 64)]
        )
        a, b = pool.peek((0, 0)), pool.peek((1, 0))
        used = m.memory.used_words
        assert pool.hold_columns(
            [(0, 0), (1, 0), (2, 0)], [a, b, a], ["A", "B", "X"]
        ) == [2]
        assert m.memory.used_words == used
        assert pool.held_columns(
            [(0, 0), (1, 0), (0, 0)], [a, b, b]
        ) == ["A", "B", None]

    def test_dropped_when_the_block_is_replaced(self):
        m = _machine(cache_blocks=2)
        pool = m.cache
        addr = (0, 0)

        def hold():
            blk = pool.peek(addr)
            pool.hold_columns([addr], [blk], ["A"])
            assert pool.held_columns([addr], [blk]) == ["A"]
            return blk

        def held():
            return pool.held_columns([addr], [pool.peek(addr)])[0]

        m.write_blocks([(addr, _payload("a"), 64)])
        hold()
        m.write_blocks([(addr, _payload("b"), 64)])  # put
        assert held() is None
        hold()
        pool.fill(addr, Block(m.block_bits), m)  # fill over the entry
        assert held() is None
        hold()
        attach_faults(m, [])
        m.write_blocks([(addr, _payload("c"), 64)])  # refresh
        assert held() is None
        blk = hold()
        pool.invalidate(addr)
        assert pool.held_columns([addr], [blk]) == [None]

    def test_dropped_on_eviction(self):
        m = _machine(cache_blocks=1)
        pool = m.cache
        m.write_blocks([((0, 0), _payload("a"), 64)])
        blk = pool.peek((0, 0))
        pool.hold_columns([(0, 0)], [blk], ["A"])
        m.write_blocks([((1, 0), _payload("b"), 64)])  # evicts (0, 0)
        again = m.read_blocks([(0, 0)])[(0, 0)]  # filled anew
        assert pool.held_columns([(0, 0)], [again]) == [None]
