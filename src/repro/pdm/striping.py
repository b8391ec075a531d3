"""Striped storage layouts.

Every dictionary in Section 4 stores its right-hand-side array (of *fields*
or of *buckets*) split across ``d`` disks according to the stripes of a
striped expander: stripe ``s`` lives entirely on disk ``disk_offset + s``,
so fetching one field/bucket from each stripe is a single parallel I/O.

Two layouts:

* :class:`StripedFieldArray` — sub-block fields of a fixed bit width, packed
  ``block_bits // field_bits`` to a block (Theorem 6's array ``A``).
* :class:`StripedItemBuckets` — one bucket per block, holding up to ``B``
  items (the Section 4.1 load-balanced bucket dictionary).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.pdm.machine import AbstractDiskMachine

FieldLoc = Tuple[int, int]  # (stripe, index within stripe)


class StripedFieldArray:
    """An array of ``d * stripe_size`` fields of ``field_bits`` bits each,
    laid out in ``d`` stripes with stripe ``s`` on disk ``disk_offset + s``.

    Fields are addressed by ``(stripe, index)`` — exactly the form a striped
    expander's neighbor function returns.  A batch touching at most one
    *block* per stripe costs one parallel I/O; since consecutive indices of a
    stripe share blocks, even several fields of one stripe may still be one
    block.
    """

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        stripes: int,
        stripe_size: int,
        field_bits: int,
        disk_offset: int = 0,
    ):
        if stripes <= 0:
            raise ValueError(f"need at least one stripe, got {stripes}")
        if stripe_size <= 0:
            raise ValueError(f"stripe size must be positive, got {stripe_size}")
        if field_bits <= 0:
            raise ValueError(f"field width must be positive, got {field_bits}")
        if disk_offset < 0 or disk_offset + stripes > machine.num_disks:
            raise ValueError(
                f"stripes [{disk_offset}, {disk_offset + stripes}) do not fit "
                f"on a machine with {machine.num_disks} disks"
            )
        if field_bits > machine.block_bits:
            raise ValueError(
                f"a {field_bits}-bit field does not fit in a "
                f"{machine.block_bits}-bit block"
            )
        self.machine = machine
        self.stripes = stripes
        self.stripe_size = stripe_size
        self.field_bits = field_bits
        self.disk_offset = disk_offset
        self.fields_per_block = machine.block_bits // field_bits
        self.blocks_per_stripe = -(-stripe_size // self.fields_per_block)
        # Claim a disjoint block range on each stripe's disk.
        self._base = [
            machine.allocate(disk_offset + s, self.blocks_per_stripe)
            for s in range(stripes)
        ]

    # -- geometry -----------------------------------------------------------

    @property
    def num_fields(self) -> int:
        return self.stripes * self.stripe_size

    def _check_loc(self, loc: FieldLoc) -> None:
        stripe, index = loc
        if not 0 <= stripe < self.stripes:
            raise IndexError(f"stripe {stripe} out of range [0, {self.stripes})")
        if not 0 <= index < self.stripe_size:
            raise IndexError(
                f"field index {index} out of range [0, {self.stripe_size})"
            )

    def _block_addr(self, loc: FieldLoc) -> Tuple[Tuple[int, int], int]:
        """Map a field location to ``((disk, block), slot)``."""
        stripe, index = loc
        block_index = self._base[stripe] + index // self.fields_per_block
        slot = index % self.fields_per_block
        return (self.disk_offset + stripe, block_index), slot

    def block_addrs(self, locs: Iterable[FieldLoc]) -> List[Tuple[int, int]]:
        """Block addresses backing the given field locations (duplicates
        preserved — round planners deduplicate).  Used by the batch layer
        to price and pack multi-key probes."""
        out = []
        for loc in locs:
            loc = tuple(loc)
            self._check_loc(loc)
            out.append(self._block_addr(loc)[0])
        return out

    def extents(self) -> List[Tuple[int, int, int]]:
        """Owned block ranges as ``(disk, first_block, count)`` — the
        registration unit of the recovery layer (rebuild and scrub walk
        these ranges)."""
        return [
            (self.disk_offset + s, self._base[s], self.blocks_per_stripe)
            for s in range(self.stripes)
        ]

    # -- I/O ------------------------------------------------------------------

    def read_fields(
        self, locs: Iterable[FieldLoc]
    ) -> Tuple[Dict[FieldLoc, Any], Dict[FieldLoc, Any]]:
        """Fetch the given fields in one planned read.

        Returns ``(values, failures)``: every requested location lands in
        exactly one map.  ``values`` holds the field (``None`` for an empty
        one); ``failures`` holds the typed
        :class:`~repro.pdm.errors.IOFault` of a block that stayed
        unreadable — an injected fault after retries, or a bad frame the
        file executor reported.  Callers decide what survived.

        Cost: one batched read on the underlying machine (1 parallel I/O when
        at most one block per stripe is involved).
        """
        addr_of: Dict[FieldLoc, Tuple[Tuple[int, int], int]] = {}
        for loc in locs:
            loc = tuple(loc)
            self._check_loc(loc)
            addr_of[loc] = self._block_addr(loc)
        unique = list(dict.fromkeys(addr for addr, _ in addr_of.values()))
        blocks, faults = self.machine.read_planned_blocks(unique)
        block_of = dict(zip(unique, blocks))
        values: Dict[FieldLoc, Any] = {}
        failures: Dict[FieldLoc, Any] = {}
        for loc, (addr, slot) in addr_of.items():
            if addr in faults:
                failures[loc] = faults[addr]
                continue
            payload = block_of[addr].payload
            values[loc] = None if payload is None else payload[slot]
        return values, failures

    def write_fields(self, assignments: Mapping[FieldLoc, Any]) -> None:
        """Store values into fields (``None`` clears a field).

        Cost: one batched write.  The model's read-before-write is *not*
        charged here — callers read the blocks as part of their own probe
        (that is how the paper reaches "2 I/Os, the best possible" updates).
        """
        by_block: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}
        for loc, value in assignments.items():
            self._check_loc(loc)
            addr, slot = self._block_addr(loc)
            by_block.setdefault(addr, []).append((slot, value))
        writes = []
        for addr, slot_values in by_block.items():
            block = self.machine.peek_at(addr)
            payload: List[Any]
            if block is None or block.payload is None:
                payload = [None] * self.fields_per_block
            else:
                payload = list(block.payload)
            for slot, value in slot_values:
                payload[slot] = value
            used = (len(payload) - payload.count(None)) * self.field_bits
            writes.append((addr, payload, used))
        self.machine.write_blocks(writes)

    def repair_fields(self, assignments: Mapping[FieldLoc, Any]) -> None:
        """Rewrite fields onto *scrubbed* blocks (read-repair; charged as
        ``repair_ios``).

        After a checksum mismatch the block's other slots are garbage of
        unknown shape, so repair starts from an empty payload and restores
        only the fields the caller reconstructed from redundancy; sibling
        keys' fields heal on their own next lookups.
        """
        by_block: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}
        for loc, value in assignments.items():
            self._check_loc(loc)
            addr, slot = self._block_addr(loc)
            by_block.setdefault(addr, []).append((slot, value))
        writes = []
        for addr, slot_values in by_block.items():
            payload: List[Any] = [None] * self.fields_per_block
            for slot, value in slot_values:
                payload[slot] = value
            used = (len(payload) - payload.count(None)) * self.field_bits
            writes.append((addr, payload, used))
        self.machine.write_blocks(writes, repair=True)

    # -- audits (no I/O charged) ----------------------------------------------

    def peek(self, loc: FieldLoc) -> Any:
        """Read a field without charging I/O (tests/verification only)."""
        self._check_loc(loc)
        addr, slot = self._block_addr(loc)
        block = self.machine.peek_at(addr)
        payload = None if block is None else block.payload
        return None if payload is None else payload[slot]

    def occupied_fields(self) -> int:
        """Number of non-empty fields (audit; no I/O charged)."""
        count = 0
        for stripe in range(self.stripes):
            disk = self.machine.disks[self.disk_offset + stripe]
            base = self._base[stripe]
            for block_index in range(base, base + self.blocks_per_stripe):
                block = disk.peek(block_index)
                payload = None if block is None else block.payload
                if payload is not None:
                    count += len(payload) - payload.count(None)
        return count

    @property
    def total_bits(self) -> int:
        """Declared external space of the array (all stripes, all blocks)."""
        return self.stripes * self.blocks_per_stripe * self.machine.block_bits


class StripedItemBuckets:
    """``d * stripe_size`` buckets holding up to ``capacity_items`` items
    apiece.

    This is the storage beneath the Section 4.1 dictionary.  With
    ``B = Omega(log N)`` the Lemma 3 load bound keeps every bucket inside
    one block and a probe of one bucket per stripe is one parallel I/O; for
    smaller ``B`` a bucket spans ``blocks_per_bucket`` consecutive blocks of
    the same disk (the "O(1) blocks, contents stored in a trivial way" case,
    where lookups remain O(1) I/Os but not one-probe).
    """

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        stripes: int,
        stripe_size: int,
        capacity_items: Optional[int] = None,
        item_bits: Optional[int] = None,
        disk_offset: int = 0,
    ):
        if stripes <= 0:
            raise ValueError(f"need at least one stripe, got {stripes}")
        if stripe_size <= 0:
            raise ValueError(f"stripe size must be positive, got {stripe_size}")
        if disk_offset < 0 or disk_offset + stripes > machine.num_disks:
            raise ValueError(
                f"stripes [{disk_offset}, {disk_offset + stripes}) do not fit "
                f"on a machine with {machine.num_disks} disks"
            )
        self.machine = machine
        self.stripes = stripes
        self.stripe_size = stripe_size
        self.item_bits = machine.item_bits if item_bits is None else item_bits
        max_items = machine.block_bits // self.item_bits
        self.capacity_items = max_items if capacity_items is None else capacity_items
        if self.capacity_items <= 0:
            raise ValueError("bucket capacity must be positive")
        self.items_per_block = max_items
        if self.items_per_block <= 0:
            raise ValueError(
                f"an item of {self.item_bits} bits does not fit in a "
                f"{machine.block_bits}-bit block"
            )
        self.blocks_per_bucket = -(-self.capacity_items // self.items_per_block)
        self.disk_offset = disk_offset
        # Claim a disjoint block range on each stripe's disk.
        self._base = [
            machine.allocate(
                disk_offset + s, stripe_size * self.blocks_per_bucket
            )
            for s in range(stripes)
        ]

    @property
    def num_buckets(self) -> int:
        return self.stripes * self.stripe_size

    def _check_loc(self, loc: FieldLoc) -> None:
        stripe, index = loc
        if not 0 <= stripe < self.stripes:
            raise IndexError(f"stripe {stripe} out of range [0, {self.stripes})")
        if not 0 <= index < self.stripe_size:
            raise IndexError(
                f"bucket index {index} out of range [0, {self.stripe_size})"
            )

    def _addrs(self, loc: FieldLoc) -> List[Tuple[int, int]]:
        """All block addresses of one bucket (consecutive on its disk)."""
        stripe, index = loc
        first = self._base[stripe] + index * self.blocks_per_bucket
        disk = self.disk_offset + stripe
        return [(disk, first + t) for t in range(self.blocks_per_bucket)]

    def block_addrs(self, locs: Iterable[FieldLoc]) -> List[Tuple[int, int]]:
        """Block addresses backing the given buckets (one per block, in
        bucket order); the batch layer's pricing/packing input."""
        out = []
        for loc in locs:
            loc = tuple(loc)
            self._check_loc(loc)
            out.extend(self._addrs(loc))
        return out

    def extents(self) -> List[Tuple[int, int, int]]:
        """Owned block ranges as ``(disk, first_block, count)`` — the
        registration unit of the recovery layer."""
        return [
            (
                self.disk_offset + s,
                self._base[s],
                self.stripe_size * self.blocks_per_bucket,
            )
            for s in range(self.stripes)
        ]

    def probe_plan(self, locals_flat: Sequence[int], kernel):
        """Kernel probe plan over flat per-stripe bucket indices
        (``degree`` per key, key-major), at bucket granularity: ``(unique,
        max_per_disk, inverse)`` from :meth:`repro.kernels.base.Kernel.
        plan_unique_probe`, where ``unique`` holds the first block of each
        distinct bucket in the scalar ``dict.fromkeys`` order and
        :meth:`block_runs` expands it into the blocks to fetch.
        """
        b = self.blocks_per_bucket
        if b != 1:
            locals_flat = [local * b for local in locals_flat]
        return kernel.plan_unique_probe(
            locals_flat, self.stripes, self._base, self.disk_offset
        )

    def block_runs(self, firsts: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Every block of the buckets whose first blocks are ``firsts``:
        one run of ``blocks_per_bucket`` consecutive blocks per bucket, in
        order (the address order of :meth:`read_buckets`)."""
        b = self.blocks_per_bucket
        if b == 1:
            return firsts
        return [(disk, first + t) for disk, first in firsts for t in range(b)]

    def loc_of(self, first: Tuple[int, int]) -> FieldLoc:
        """The ``(stripe, index)`` location of the bucket starting at block
        address ``first`` (inverse of the layout's address arithmetic)."""
        stripe = first[0] - self.disk_offset
        return (stripe, (first[1] - self._base[stripe]) // self.blocks_per_bucket)

    def read_buckets(self, locs: Iterable[FieldLoc]) -> Dict[FieldLoc, List[Any]]:
        """Fetch bucket contents as item lists (empty list if untouched).

        Multi-block buckets live on one disk, so reading a bucket costs
        ``blocks_per_bucket`` rounds — O(1) lookups but not one-probe,
        exactly the paper's small-``B`` trade-off.
        """
        locs = [l if type(l) is tuple else tuple(l) for l in locs]
        if self.blocks_per_bucket == 1:
            # Single-block buckets (the common one-probe layout): inline
            # the address arithmetic — this is the dictionary probe path.
            base = self._base
            off = self.disk_offset
            stripes = self.stripes
            size = self.stripe_size
            addr_of: Dict[FieldLoc, Tuple[int, int]] = {}
            for loc in locs:
                stripe, index = loc
                if not (0 <= stripe < stripes and 0 <= index < size):
                    self._check_loc(loc)
                addr_of[loc] = (off + stripe, base[stripe] + index)
            blocks = self.machine.read_blocks(addr_of.values())
            out_fast: Dict[FieldLoc, List[Any]] = {}
            for loc, addr in addr_of.items():
                payload = blocks[addr].payload
                out_fast[loc] = list(payload) if payload else []
            return out_fast
        for loc in locs:
            self._check_loc(loc)
        per_loc = [self._addrs(loc) for loc in locs]
        all_addrs = [a for addrs in per_loc for a in addrs]
        blocks = self.machine.read_blocks(all_addrs)
        out: Dict[FieldLoc, List[Any]] = {}
        for loc, addrs in zip(locs, per_loc):
            items: List[Any] = []
            for addr in addrs:
                payload = blocks[addr].payload
                if payload:
                    items.extend(payload)
            out[loc] = items
        return out

    def read_buckets_degraded(
        self, locs: Iterable[FieldLoc]
    ) -> Tuple[Dict[FieldLoc, List[Any]], Dict[FieldLoc, Any]]:
        """Fault-tolerant variant of :meth:`read_buckets`.

        A bucket is failed as a whole if *any* of its blocks is unreadable
        (a partial bucket could hide an item, so partial data is unsafe).
        Returns ``(buckets, failures)``; each location appears in exactly
        one of the two maps.
        """
        locs = [tuple(l) for l in locs]
        for loc in locs:
            self._check_loc(loc)
        all_addrs = []
        for loc in locs:
            all_addrs.extend(self._addrs(loc))
        blocks, faults = self.machine.read_blocks_degraded(all_addrs)
        out: Dict[FieldLoc, List[Any]] = {}
        failures: Dict[FieldLoc, Any] = {}
        for loc in locs:
            items: List[Any] = []
            fault = None
            for addr in self._addrs(loc):
                fault = faults.get(addr)
                if fault is not None:
                    break
                payload = blocks[addr].payload
                if payload:
                    items.extend(payload)
            if fault is not None:
                failures[loc] = fault
            else:
                out[loc] = items
        return out, failures

    def write_buckets(self, assignments: Mapping[FieldLoc, Sequence[Any]]) -> None:
        """Replace bucket contents.  Raises if a bucket would exceed its
        item capacity — the Lemma 3 load bound is what prevents this in the
        paper, and we want violations loud."""
        writes = []
        for loc, items in assignments.items():
            self._check_loc(loc)
            items = list(items)
            if len(items) > self.capacity_items:
                raise OverflowError(
                    f"bucket {loc} would hold {len(items)} items; capacity is "
                    f"{self.capacity_items}"
                )
            addrs = self._addrs(loc)
            for t, addr in enumerate(addrs):
                part = items[
                    t * self.items_per_block : (t + 1) * self.items_per_block
                ]
                writes.append((addr, part, len(part) * self.item_bits))
        self.machine.write_blocks(writes)

    def peek(self, loc: FieldLoc) -> List[Any]:
        """Read a bucket without charging I/O (tests/verification only)."""
        self._check_loc(loc)
        items: List[Any] = []
        for addr in self._addrs(loc):
            block = self.machine.peek_at(addr)
            payload = None if block is None else block.payload
            if payload:
                items.extend(payload)
        return items

    def loads(self) -> Dict[FieldLoc, int]:
        """Audit: current load of every touched bucket (no I/O charged)."""
        out: Dict[FieldLoc, int] = {}
        for stripe in range(self.stripes):
            for index in range(self.stripe_size):
                n = len(self.peek((stripe, index)))
                if n:
                    out[(stripe, index)] = n
        return out
