"""Section 6 exploration: full bandwidth with ONE-I/O worst-case lookups.

The paper's open problem: "It is plausible that full bandwidth can be
achieved with lookup in 1 I/O, while still supporting efficient updates.
One idea that we have considered is to apply the load balancing scheme with
``k = Omega(d)``, recursively, for some constant number of levels before
relying on a brute-force approach.  However, this makes the time for
updates non-constant."

:class:`RecursiveLoadBalancedDictionary` implements exactly that idea:

* a *constant* number of levels, each a bucket array indexed by its own
  striped expander and living on its **own group of d disks**;
* a record of ``sigma`` bits is split into ``k = ceil(2d/3)`` tagged
  fragments placed by the greedy Lemma 3 rule into the level's buckets;
  when a level cannot host all ``k`` fragments the whole record recurses to
  the next (geometrically smaller) level;
* whatever falls through every level lands in a **brute-force area**: one
  superblock (one block per disk of a final group) holding whole records;
* a lookup reads, in a SINGLE parallel I/O, the key's neighborhoods on all
  levels *plus* the brute-force superblock — the disk groups are disjoint,
  so the batch touches at most one block per disk.

Measured consequences (see ``benchmarks/bench_section6_recursive.py``):
worst-case lookups are genuinely 1 parallel I/O at full record bandwidth;
the price is (a) a factor ``levels + 1`` more disks and (b) updates whose
I/O grows with the level count — "non-constant", as the paper predicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bits import join_record, split_record
from repro.core.interface import CapacityExceeded, Dictionary, LookupResult
from repro.core.static_dict import fields_needed
from repro.expanders.random_graph import SeededRandomExpander
from repro.pdm.iostats import OpCost, measure
from repro.pdm.spans import span
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm.striping import StripedItemBuckets


@dataclass
class RecursiveStats:
    inserts: int = 0
    insert_ios: int = 0
    level_histogram: Dict[int, int] = field(default_factory=dict)
    brute_inserts: int = 0

    @property
    def avg_insert_ios(self) -> float:
        return self.insert_ios / self.inserts if self.inserts else 0.0

    @property
    def spill_fraction(self) -> float:
        deep = sum(c for lvl, c in self.level_histogram.items() if lvl > 0)
        deep += self.brute_inserts
        return deep / self.inserts if self.inserts else 0.0


class RecursiveLoadBalancedDictionary(Dictionary):
    """The Section 6 candidate structure."""

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        universe_size: int,
        capacity: int,
        sigma: int,
        degree: Optional[int] = None,
        levels: int = 2,
        ratio: float = 0.15,
        stripe_slack: float = 2.0,
        bucket_slots: Optional[int] = None,
        disk_offset: int = 0,
        seed: int = 0,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if levels < 1:
            raise ValueError(f"need at least one level, got {levels}")
        if not 0 < ratio < 1:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        self.machine = machine
        self.universe_size = universe_size
        self.capacity = capacity
        self.sigma = sigma
        if degree is None:
            degree = (machine.num_disks - disk_offset) // (levels + 1)
        needed = disk_offset + (levels + 1) * degree
        if degree < 4 or needed > machine.num_disks:
            raise ValueError(
                f"{levels} levels + brute area at degree {degree} need "
                f"{needed} disks; machine has {machine.num_disks}"
            )
        self.degree = degree
        self.k = fields_needed(degree)  # k = Omega(d): ceil(2d/3)
        self.frag_bits = math.ceil(sigma / self.k)
        self.num_levels = levels

        # Fragment item: key + fragment index + fragment payload.
        key_bits = max(1, math.ceil(math.log2(max(universe_size, 2))))
        frag_item_bits = key_bits + math.ceil(math.log2(max(degree, 2))) + (
            self.frag_bits
        )
        slots = (
            max(2, machine.block_bits // frag_item_bits)
            if bucket_slots is None
            else bucket_slots
        )

        self.levels_store: List[StripedItemBuckets] = []
        self.level_graphs: List[SeededRandomExpander] = []
        stripe = max(4, math.ceil(stripe_slack * capacity * self.k
                                  / (slots * degree)))
        for level in range(levels):
            graph = SeededRandomExpander(
                left_size=universe_size,
                degree=degree,
                stripe_size=stripe,
                seed=seed + 31 * (level + 1),
            )
            store = StripedItemBuckets(
                machine,
                stripes=degree,
                stripe_size=stripe,
                capacity_items=slots,
                item_bits=frag_item_bits,
                disk_offset=disk_offset + level * degree,
            )
            self.level_graphs.append(graph)
            self.levels_store.append(store)
            stripe = max(4, math.ceil(stripe * ratio))

        # Brute-force area: one block on each disk of the final group.
        record_bits = key_bits + sigma
        self.brute_offset = disk_offset + levels * degree
        self._brute_addrs = [
            (self.brute_offset + t, machine.allocate(self.brute_offset + t, 1))
            for t in range(degree)
        ]
        self._brute_per_block = max(1, machine.block_bits // record_bits)
        self._brute_record_bits = record_bits
        self.brute_capacity = degree * self._brute_per_block

        self.size = 0
        self.stats = RecursiveStats()

    # -- plumbing -------------------------------------------------------------

    def _read_everything(self, key: int):
        """The single-parallel-I/O read: all levels' neighborhoods plus the
        brute-force superblock (disjoint disk groups, one block each)."""
        addrs = []
        level_locs = []
        for level in range(self.num_levels):
            locs = self.level_graphs[level].striped_neighbors(key)
            level_locs.append(locs)
            store = self.levels_store[level]
            for loc in locs:
                addrs.extend(store._addrs(loc))
        addrs.extend(self._brute_addrs)
        blocks = self.machine.read_blocks(addrs)

        per_level = []
        for level, locs in enumerate(level_locs):
            store = self.levels_store[level]
            contents = {}
            for loc in locs:
                items: List[Any] = []
                for addr in store._addrs(loc):
                    payload = blocks[addr].payload
                    if payload:
                        items.extend(payload)
                contents[loc] = items
            per_level.append((locs, contents))
        brute: List[Tuple[int, int]] = []
        for addr in self._brute_addrs:
            payload = blocks[addr].payload
            if payload:
                brute.extend(payload)
        return per_level, brute

    def _write_brute(self, records: List[Tuple[int, int]]) -> None:
        if len(records) > self.brute_capacity:
            raise CapacityExceeded(
                f"brute-force area overflow ({len(records)} records, "
                f"capacity {self.brute_capacity}); add levels or slack"
            )
        writes = []
        for t, addr in enumerate(self._brute_addrs):
            part = records[
                t * self._brute_per_block : (t + 1) * self._brute_per_block
            ]
            writes.append(
                (addr, part, len(part) * self._brute_record_bits)
            )
        self.machine.write_blocks(writes)

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        self._check_key(key)
        with span(
            self.machine,
            "recursive_dict.lookup",
            op="lookup",
            structure="recursive_dict",
        ) as m:
            per_level, brute = self._read_everything(key)
        # Brute-force area first (whole records).
        for (k2, value) in brute:
            if k2 == key:
                return LookupResult(True, value, m.cost)
        # Fragment gather: a key's fragments live at exactly one level.
        for locs, contents in per_level:
            frags = [
                (t, frag)
                for loc in locs
                for (k2, t, frag) in contents[loc]
                if k2 == key
            ]
            if frags:
                frags.sort()
                value = join_record(
                    [frag for _, frag in frags], self.sigma, self.frag_bits
                )
                return LookupResult(True, value, m.cost)
        return LookupResult(False, None, m.cost)

    def insert(self, key: int, value: int = None) -> OpCost:
        self._check_key(key)
        if value is None or not 0 <= value < (1 << self.sigma):
            raise ValueError(
                f"value must be an integer in [0, 2^{self.sigma}), got "
                f"{value!r}"
            )
        with span(
            self.machine,
            "recursive_dict.insert",
            op="insert",
            structure="recursive_dict",
        ) as m:
            # One parallel read fetches current state everywhere (this is
            # also what makes the update correct under upsert semantics).
            per_level, brute = self._read_everything(key)
            was_present = self._clear_inline(key, per_level, brute)
            if not was_present and self.size >= self.capacity:
                raise CapacityExceeded(
                    f"dictionary at capacity N={self.capacity}"
                )

            placed_level = None
            frags = split_record(value, self.sigma, self.frag_bits, self.k)
            for level, (locs, contents) in enumerate(per_level):
                store = self.levels_store[level]
                # Greedy k-choice: repeatedly put the next fragment into
                # the least-loaded neighbor bucket with a free slot.
                loads = {loc: len(contents[loc]) for loc in locs}
                chosen: Dict[Tuple[int, int], List[Any]] = {}
                ok = True
                for t, frag in enumerate(frags):
                    candidates = [
                        loc for loc in locs
                        if loads[loc] < store.capacity_items
                    ]
                    if not candidates:
                        ok = False
                        break
                    target = min(candidates, key=lambda l: (loads[l], l))
                    contents[target] = contents[target] + [(key, t, frag)]
                    loads[target] += 1
                    chosen[target] = contents[target]
                if ok:
                    store.write_buckets(chosen)
                    placed_level = level
                    break
            if placed_level is None:
                brute.append((key, value))
                self._write_brute(brute)
                self.stats.brute_inserts += 1
            else:
                self.stats.level_histogram[placed_level] = (
                    self.stats.level_histogram.get(placed_level, 0) + 1
                )
        if not was_present:
            self.size += 1
        self.stats.inserts += 1
        self.stats.insert_ios += m.cost.total_ios
        return m.cost

    def _clear_inline(self, key, per_level, brute) -> bool:
        """Remove any existing copy of ``key`` (updates and deletes).
        Mutates the in-memory views and writes back touched storage."""
        removed = False
        for level, (locs, contents) in enumerate(per_level):
            dirty = {}
            for loc in locs:
                kept = [it for it in contents[loc] if it[0] != key]
                if len(kept) != len(contents[loc]):
                    contents[loc] = kept
                    dirty[loc] = kept
                    removed = True
            if dirty:
                self.levels_store[level].write_buckets(dirty)
        survivors = [(k2, v) for (k2, v) in brute if k2 != key]
        if len(survivors) != len(brute):
            brute[:] = survivors
            self._write_brute(survivors)
            removed = True
        return removed

    def delete(self, key: int) -> OpCost:
        self._check_key(key)
        with span(
            self.machine,
            "recursive_dict.delete",
            op="delete",
            structure="recursive_dict",
        ) as m:
            per_level, brute = self._read_everything(key)
            removed = self._clear_inline(key, per_level, brute)
        if removed:
            self.size -= 1
        return m.cost

    # -- audits --------------------------------------------------------------------

    def stored_keys(self) -> Iterator[int]:
        seen = set()
        for level, store in enumerate(self.levels_store):
            for loc in store.loads():
                for (k2, _t, _f) in store.peek(loc):
                    if k2 not in seen:
                        seen.add(k2)
                        yield k2
        for addr in self._brute_addrs:
            payload = self.machine.block_at(addr).payload  # detlint: ignore[PDM102] -- audit iterator, uncharged by design
            if payload:
                for (k2, _v) in payload:
                    if k2 not in seen:
                        seen.add(k2)
                        yield k2

    def recovery_extents(self):
        ext = []
        for store in self.levels_store:
            ext.extend(store.extents())
        return ext

    def __len__(self) -> int:
        return self.size

    @property
    def disks_used(self) -> int:
        return (self.num_levels + 1) * self.degree
