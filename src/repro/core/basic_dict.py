"""The Section 4.1 dictionary: deterministic load balancing over buckets.

Structure: a striped expander ``G`` with ``v = d * stripe_size`` buckets and
the Lemma 3 greedy scheme with ``k = 1`` (or ``k = d/2`` for the satellite
variant).  The bucket array is split across ``D = d`` disks according to the
stripes of ``G``:

* **lookup**: read the ``d`` buckets of ``Γ(x)`` — one block per disk, i.e.
  **one parallel I/O** (``blocks_per_bucket`` I/Os when ``B`` is too small
  for one-probe, the paper's atomic-heap regime);
* **insert**: the lookup probe already fetched all candidate loads, so the
  greedy choice is free; writing the chosen bucket(s) is one more parallel
  I/O — **2 I/Os total**, the best possible (a block must be read before it
  is written);
* **delete**: read + write back, 2 I/Os (the paper routes deletions through
  global rebuilding only to reclaim space; removing an item in place is
  already safe here).

With ``k = k_fragments > 1`` a value is split into ``k`` fragments placed by
the same greedy rule (``v = k N * slack`` buckets), and the single lookup
I/O returns all fragments — satellite bandwidth ``O(B D / log N)`` per probe
(Section 4.1 "with satellite information").
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.interface import (
    CapacityExceeded,
    DegradedLookupError,
    DegradedModeError,
    Dictionary,
    LookupResult,
    annotate_round_packing,
)
from repro.expanders.base import StripedExpander
from repro.expanders.neighborhoods import NeighborhoodMemo
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import resolve_kernel
from repro.pdm.errors import DiskFailure
from repro.pdm.iostats import OpCost
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm import InternalMemory, InternalMemoryExceeded
from repro.pdm.spans import span
from repro.pdm.striping import StripedItemBuckets


#: largest key the kernels' 64-bit lanes carry (2**64 - 1 is the pad)
_MAX_LANE_KEY = 0xFFFFFFFFFFFFFFFE


def _split_value(value: Any, k: int) -> List[Any]:
    """Split a sliceable value into ``k`` near-equal fragments."""
    if k == 1:
        return [value]
    try:
        length = len(value)
    except TypeError:
        raise TypeError(
            f"k_fragments={k} needs sliceable values (str/bytes/list), "
            f"got {type(value).__name__}"
        ) from None
    step = -(-length // k) if length else 0
    out = []
    for t in range(k):
        out.append(value[t * step : (t + 1) * step])
    return out


def _join_fragments(fragments: Sequence[Any]) -> Any:
    """Invert :func:`_split_value`."""
    if len(fragments) == 1:
        return fragments[0]
    first = fragments[0]
    if isinstance(first, str):
        return "".join(fragments)
    if isinstance(first, bytes):
        return b"".join(fragments)
    out = list(first)
    for frag in fragments[1:]:
        out.extend(frag)
    return type(first)(out) if not isinstance(first, list) else out


def _unstaged(name: str):
    """The stage hook of an uninstrumented batch: no kernel-stage span."""
    return nullcontext()


def _ints(inverse) -> List[int]:
    """A probe plan's backend-shaped ``inverse`` as a list of ints."""
    return inverse.tolist() if hasattr(inverse, "tolist") else list(inverse)


def _key_locs(flat, d: int, n: int):
    """Per-key ``(stripe, index)`` candidate tuples of a flat neighborhood
    array (the round-packing telemetry input)."""
    return [tuple(enumerate(flat[i * d : (i + 1) * d])) for i in range(n)]


#: column-store generation stamps: a row handle held with a pool entry
#: matches only the store generation (of one dictionary) that wrote it
_next_store_token = itertools.count(1).__next__


class _Run:
    """A multi-block bucket as one unit of the key match: the
    concatenated payload of its blocks and their joint version."""

    __slots__ = ("payload", "version")

    def __init__(self, blocks) -> None:
        items: List[Any] = []
        for blk in blocks:
            if blk.payload:
                items.extend(blk.payload)
        self.payload = items
        self.version = tuple(blk.version for blk in blocks)


class _KeyColumnCache:
    """Per-bucket key columns in a kernel column store, for the batch key
    match (:meth:`~repro.kernels.base.Kernel.match_candidates`).

    Storing every column per batch would eat the win, so a column
    outlives its batch where internal memory allows it honestly:

    * a **pool-resident** block's column is held with its pool entry
      (:meth:`~repro.pdm.cache.BufferPool.hold_columns`): the slot's
      ``B`` words are already charged, and the pool drops the column when
      the entry's block is replaced or leaves the pool;
    * with **neither pool nor fault injector**, columns are cached per
      :attr:`~repro.pdm.block.Block.version` (sound: no layer changes a
      payload behind it) and charged ``width + 1`` words each, freezing
      like :class:`~repro.expanders.neighborhoods.NeighborhoodMemo` when
      ``M`` is spoken for;
    * every other column is batch scratch, uncharged like the fetched
      blocks themselves.

    Rows are write-once, so stale and scratch columns leave dead rows.
    The store resets wholesale only at the start of a batch that might
    not fit ``max_entries`` cached columns or ``2 * max_entries`` rows, so
    every row handle of a batch indexes the store it was written to.
    """

    __slots__ = (
        "memory", "width", "max_entries",
        "_store", "_backing", "_rows", "_charged", "_frozen", "_token",
    )

    def __init__(
        self,
        memory: Optional[InternalMemory],
        width: int,
        max_entries: int = 1 << 16,
    ) -> None:
        self.memory = memory
        self.width = width
        self.max_entries = max_entries
        #: addr -> (block version, row handle)
        self._store: Dict[Tuple[int, int], Tuple[Any, int]] = {}  # detlint: guarded(owner-lane) -- memo + memory charge single-writer, like NeighborhoodMemo
        self._backing: Any = None  # kernel column store, created lazily
        self._rows = 0
        self._charged = 0
        self._frozen = False
        self._token = _next_store_token()

    def match(self, kernel, addrs, blocks, queries, inverse, *, pool, retain):
        """:meth:`~repro.kernels.base.Kernel.match_candidates` of one
        batch: ``blocks[u]`` is the plan's ``u``-th bucket (a
        :class:`_Run` for a multi-block one) and ``addrs[u]`` names it.

        Reuses the columns held with the pool entries (with a pool) or the
        version-cached ones (without); the rest are stored with one
        :meth:`~repro.kernels.base.Kernel.store_columns` call, then held
        with their pool entry when resident, cached and charged when
        ``retain``, scratch otherwise.
        """
        n = len(blocks)
        if (
            self._rows + n > 2 * self.max_entries
            or len(self._store) + n > self.max_entries
            or (pool is not None and self._store)
        ):
            # The only reset point: no row handle of this batch exists
            # yet.  A machine that gained a pool keeps its columns with
            # the pool entries from now on, so its charged ones go too.
            self.reset()
        if self._backing is None:
            self._backing = kernel.new_column_store(self.width)
        token = self._token
        if pool is not None:
            rows = [
                h[1] if h is not None and h[0] == token else -1
                for h in pool.held_columns(addrs, blocks)
            ]
        else:
            rows = [
                e[1] if e is not None and e[0] == blk.version else -1
                for e, blk in zip(map(self._store.get, addrs), blocks)
            ]
        todo = [i for i, row in enumerate(rows) if row < 0]
        if todo:
            new_rows = kernel.store_columns(
                self._backing, [blocks[i].payload for i in todo]
            )
            self._rows += len(todo)
            for i, row in zip(todo, new_rows):
                rows[i] = row
            if pool is not None:
                todo = [
                    todo[j]
                    for j in pool.hold_columns(
                        [addrs[i] for i in todo],
                        [blocks[i] for i in todo],
                        [(token, rows[i]) for i in todo],
                    )
                ]
            for i in todo:
                self._keep(addrs[i], blocks[i].version, rows[i], retain)
        if not rows:
            return []
        return kernel.match_candidates(self._backing, rows, inverse, queries)

    def _keep(self, addr, version, row: int, retain: bool) -> None:
        """Cache (and charge) one non-resident column, or drop the stale
        entry it replaces when the column is scratch."""
        words = self.width + 1
        if addr in self._store:
            # Stale version: release before (maybe) re-caching; the old
            # row stays dead in the store until the row-bound reset.
            del self._store[addr]
            self._charged -= words
            if self.memory is not None:
                self.memory.release(words)
        if not retain or self._frozen:
            return
        if self.memory is not None:
            try:
                self.memory.charge(words)
            except InternalMemoryExceeded:
                self._frozen = True
                return
        self._charged += words
        self._store[addr] = (version, row)

    def reset(self) -> None:
        """Deterministic wholesale reset; releases every charged word and
        drops the backing store (recreated on next use) — and with it
        every row handle held with a pool entry."""
        self._store.clear()
        self._backing = None
        self._rows = 0
        if self.memory is not None and self._charged:
            self.memory.release(self._charged)
        self._charged = 0
        self._frozen = False
        self._token = _next_store_token()


class BasicDictionary(Dictionary):
    """Deterministic dynamic dictionary with O(1) worst-case I/Os (§4.1)."""

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        universe_size: int,
        capacity: int,
        degree: Optional[int] = None,
        stripe_size: Optional[int] = None,
        k_fragments: int = 1,
        bucket_capacity: Optional[int] = None,
        load_slack: float = 2.0,
        disk_offset: int = 0,
        seed: int = 0,
        graph: Optional[StripedExpander] = None,
        kernel: Any = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if universe_size <= 0:
            raise ValueError(
                f"universe size must be positive, got {universe_size}"
            )
        self.machine = machine
        self.universe_size = universe_size
        self.capacity = capacity
        self.k = k_fragments
        if graph is not None:
            degree = graph.degree
            stripe_size = graph.stripe_size
        if degree is None:
            degree = machine.num_disks - disk_offset
        if degree <= self.k:
            raise ValueError(
                f"Lemma 3 requires d > k; got d={degree}, k={self.k}"
            )
        bucket_cap = (
            machine.block_items if bucket_capacity is None else bucket_capacity
        )
        if stripe_size is None:
            # v buckets sized so the average load k*N/v is at most
            # bucket_cap / load_slack, leaving Lemma 3's additive log term
            # as headroom before a bucket overflows its block(s).
            target_v = max(
                degree, math.ceil(load_slack * self.k * capacity / bucket_cap)
            )
            stripe_size = max(1, -(-target_v // degree))
        if graph is None:
            graph = SeededRandomExpander(
                left_size=universe_size,
                degree=degree,
                stripe_size=stripe_size,
                seed=seed,
            )
        self.graph = graph
        # Hot-path neighborhood evaluation, memoized into internal memory
        # (the model grants M words; repeated Γ(key) evaluations are free).
        self._neighborhoods = NeighborhoodMemo(graph, memory=machine.memory)
        #: batch kernel; swapping backends never changes an answer or a
        #: charge (the tests/kernels differential suite pins this).
        self._kernel = resolve_kernel(kernel)
        #: the backend of the batch lookup pipeline: the reference kernel
        #: when keys may not fit the 64-bit lanes (the column stores pad
        #: rows with 2**64 - 1)
        self._batch_kernel = (
            self._kernel
            if universe_size <= _MAX_LANE_KEY + 1
            else resolve_kernel("python")
        )
        self.buckets = StripedItemBuckets(
            machine,
            stripes=degree,
            stripe_size=stripe_size,
            capacity_items=bucket_cap,
            disk_offset=disk_offset,
        )
        self._columns = _KeyColumnCache(
            machine.memory, self.buckets.capacity_items
        )
        self.size = 0
        self._max_load_seen = 0

    # -- properties ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.graph.degree

    @property
    def num_buckets(self) -> int:
        return self.graph.right_size

    @property
    def one_probe(self) -> bool:
        """True when a lookup is a single parallel I/O (bucket = 1 block)."""
        return self.buckets.blocks_per_bucket == 1

    @property
    def max_load_seen(self) -> int:
        return self._max_load_seen

    # -- operations -------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.lookup",
            op="lookup",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(locs)
                failures: Dict[Tuple[int, int], Any] = {}
            else:
                contents, failures = self.buckets.read_buckets_degraded(locs)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_buckets=len(failures))
            fragments: List[Tuple[int, Any]] = []
            for loc in locs:
                if loc in failures:
                    continue
                for (k2, t, frag) in contents[loc]:
                    if k2 == key:
                        fragments.append((t, frag))
            if m.span is not None:
                m.annotate(found=bool(fragments))
        if failures:
            self._settle_degraded(key, fragments, failures)
        if not fragments:
            return LookupResult(False, None, m.cost)
        fragments.sort()
        value = _join_fragments([frag for _, frag in fragments])
        return LookupResult(True, value, m.cost)

    def _settle_degraded(
        self,
        key: int,
        fragments: List[Tuple[int, Any]],
        failures: Dict[Tuple[int, int], Any],
    ) -> None:
        """Decide whether a lookup that lost buckets is still sound.

        A key lives in exactly one bucket per fragment (``k`` buckets
        total), so a *complete* fragment set recovered from the surviving
        choices is a correct positive answer — the ``d``-choice fallback.
        Anything else is undecidable: the key (or a missing fragment) may
        be hiding in a failed bucket, so we fail loudly rather than report
        a possibly-wrong miss or a truncated value.
        """
        ts = sorted(t for t, _ in fragments)
        if ts == list(range(self.k)):
            return  # every fragment recovered: positive answer is sound
        raise DegradedLookupError(
            f"key {key}: {len(failures)} of {self.degree} candidate buckets "
            f"unreadable and only {len(ts)}/{self.k} fragments recovered; "
            f"membership cannot be decided",
            key=key,
            failures=failures,
            membership=True if ts else None,
        )

    def lookup_batch(self, keys: Sequence[int]) -> Tuple[Dict[int, LookupResult], OpCost]:
        """Strict batched lookup: like :meth:`batch_lookup` but an
        undecidable key (first in key order) raises instead of appearing as
        a per-key error value.  Kept for callers that prefer loud failure.
        """
        outcomes, cost = self.batch_lookup(keys)
        out: Dict[int, LookupResult] = {}
        for key, result in outcomes.items():
            if isinstance(result, Exception):
                raise result
            out[key] = result
        return out, cost

    def _read_candidates(self, keys, stage):
        """The front half of every batch operation: the candidate buckets
        of ``keys`` (distinct, in order) fetched in one planned read.

        Flat neighborhoods, the kernel probe plan (a multi-block bucket is
        a run of consecutive blocks), then one
        :meth:`~repro.pdm.machine.AbstractDiskMachine.read_planned_blocks`
        call (the pool's cache filter, then the charged fetch of the
        misses) priced by ``rounds_for_counts``.  Returns ``(flat, unique,
        inverse, blocks, failed)``: ``blocks[u]`` is the plan's ``u``-th
        bucket (a :class:`_Run` for a multi-block one) and ``failed`` maps
        the plan index of every unreadable bucket to its fault.  ``stage``
        opens the kernel-stage spans (or nothing).
        """
        machine = self.machine
        buckets = self.buckets
        kernel = self._batch_kernel
        b = buckets.blocks_per_bucket
        with stage("kernel.neighborhoods"):
            flat = self._neighborhoods.batch_local_indices(keys, kernel=kernel)
        with stage("kernel.plan"):
            unique, max_per_disk, inverse = buckets.probe_plan(flat, kernel)
        addrs = buckets.block_runs(unique)
        blocks, failures = machine.read_planned_blocks(
            addrs, machine.rounds_for_counts(len(addrs), max_per_disk * b)
        )
        # A partly read bucket could hide an item, so it fails whole,
        # with the fault of its first unreadable block.
        failed: Dict[int, Any] = {}
        for u in range(len(unique)) if failures else ():
            for addr in addrs[u * b : (u + 1) * b]:
                if addr in failures:
                    failed[u] = failures[addr]
                    break
        if b != 1:
            blocks = [
                _Run(() if u in failed else blocks[u * b : (u + 1) * b])
                for u in range(len(unique))
            ]
        return flat, unique, inverse, blocks, failed

    def _lost(self, unique, failed, cands) -> Dict[Tuple[int, int], Any]:
        """``{loc: fault}`` of the unreadable buckets among ``cands`` (plan
        indices, in stripe order)."""
        loc_of = self.buckets.loc_of
        return {loc_of(unique[u]): failed[u] for u in cands if u in failed}

    def batch_lookup(self, keys):
        """Answer many lookups in one round-packed probe.

        All requested buckets go to the machine as a single batch; the PDM
        prices it at the max per-disk multiplicity, so ``q`` *distinct*
        keys cost about ``q`` rounds — but repeated/overlapping keys
        deduplicate to shared blocks and cost less (a skewed read stream,
        the Section 1.2 webmail pattern, gains the most).  Per-key results
        carry the whole batch's cost; undecidable keys under faults become
        per-key :class:`DegradedLookupError` values (PR 3 semantics — the
        batch itself never fails wholesale).

        One pipeline serves every configuration: the planned read of
        :meth:`_read_candidates`, the kernel key match (a failed bucket is
        an empty column), and :meth:`_settle_degraded` for just the keys
        that lost a candidate.  Keys wider than 64 bits run it on the
        reference kernel.
        """
        keys = list(keys)
        for key in keys:
            self._check_key(key)
        machine = self.machine
        buckets = self.buckets
        kernel = self._batch_kernel
        d = self.graph.degree
        b = buckets.blocks_per_bucket
        with span(
            machine,
            "basic_dict.batch_lookup",
            op="batch_lookup",
            structure="basic_dict",
            blocks_per_bucket=b,
            batch_size=len(keys),
        ) as m:
            distinct = list(dict.fromkeys(keys))
            instrumented = m.span is not None

            def stage(name):
                # The kernel stages surface as their own latency layer
                # ("kernel" in repro.obs); uninstrumented runs skip even
                # the span() no-op calls.
                if instrumented:
                    return span(machine, name, backend=kernel.name)
                return nullcontext()

            flat, unique, inverse, blocks, failed = self._read_candidates(
                distinct, stage
            )
            with stage("kernel.match"):
                matches = self._columns.match(
                    kernel, unique, blocks, distinct, inverse,
                    pool=machine.cache if b == 1 else None,
                    retain=machine.cache is None and machine.faults is None,
                )
            per_key: List[Optional[List[Tuple[int, Any]]]] = (
                [None] * len(distinct)
            )
            for qi, ci, slot in matches:
                item = blocks[ci].payload[slot]
                frags = per_key[qi]
                if frags is None:
                    per_key[qi] = frags = []
                frags.append((item[1], item[2]))
            if instrumented:
                if failed:
                    m.annotate(degraded=True, failed_buckets=len(failed))
                m.annotate(
                    distinct_keys=len(distinct), buckets_read=len(unique)
                )
                annotate_round_packing(
                    m, machine, buckets, _key_locs(flat, d, len(distinct))
                )
        out: Dict[int, Any] = {}
        cost = m.cost
        candidates = _ints(inverse) if failed else None
        for qi, key in enumerate(distinct):
            frags = per_key[qi]
            if failed:
                lost = self._lost(
                    unique, failed, candidates[qi * d : (qi + 1) * d]
                )
                if lost:
                    try:
                        # Same soundness rule as the single-key path: a
                        # complete fragment set from the surviving choices
                        # stays a sound positive answer.
                        self._settle_degraded(key, frags or [], lost)
                    except DegradedLookupError as exc:
                        out[key] = exc
                        continue
            if frags:
                frags.sort()
                out[key] = LookupResult(
                    True, _join_fragments([f for _, f in frags]), cost
                )
            else:
                out[key] = LookupResult(False, None, cost)
        return out, cost

    def _read_for_update(self, keys, m):
        """The read half of a batch mutation: :meth:`_read_candidates`
        without kernel-stage spans, plus what placement needs.

        Returns ``(unique, candidates, staged, holders, failed)``:
        ``candidates`` holds ``d`` plan indices per key (stripe order),
        ``staged[u]`` the item list of plan bucket ``u`` (the fetched
        payload itself, replaced — never mutated — when a key changes it),
        and ``holders`` the uncharged scratch index of which fetched
        buckets hold an item of which batch key.
        """
        flat, unique, inverse, blocks, failed = self._read_candidates(
            keys, _unstaged
        )
        if m.span is not None:
            if failed:
                m.annotate(degraded=True, failed_buckets=len(failed))
            annotate_round_packing(
                m, self.machine, self.buckets,
                _key_locs(flat, self.graph.degree, len(keys)),
            )
        staged = [blk.payload or [] for blk in blocks]
        wanted = set(keys)
        holders: Dict[int, List[int]] = {}
        for u, payload in enumerate(staged):
            for item in payload:
                key = item[0]
                if key in wanted:
                    held = holders.get(key)
                    if held is None:
                        holders[key] = [u]
                    elif held[-1] != u:
                        held.append(u)
        return unique, _ints(inverse), staged, holders, failed

    def _write_staged(self, unique, staged, dirty) -> None:
        """Write the dirty plan buckets back in one batch, in the order
        they first changed."""
        loc_of = self.buckets.loc_of
        self.buckets.write_buckets(
            {loc_of(unique[u]): staged[u] for u in dirty}
        )

    def batch_insert(self, items):
        """Upsert many keys with one batched read and one batched write.

        The candidate buckets of every key are fetched by the planned read
        :meth:`batch_lookup` uses.  The greedy ``d``-choice placements are
        then computed in arrival order against the staged in-memory
        contents (so earlier keys' placements shape later keys' loads,
        exactly as if the inserts ran sequentially): a key's existing
        fragments come from a scratch index of the fetched buckets, the
        loads are the staged list lengths, each fragment goes to the first
        least-loaded candidate in stripe order, and only the (at most
        ``2k``) buckets the key changes are copied.  Every dirty bucket is
        written back in one batch, keys' changes in stripe order.

        Per-key outcomes are ``(was_present, old_value)`` or a typed error:
        keys with an unreadable candidate bucket — a failed disk, or a bad
        frame on the file executor — refuse their mutation upfront
        (:class:`DegradedModeError`), keys that would overflow the
        structure or a bucket get :class:`CapacityExceeded`, and neither
        poisons the rest of the batch.
        """
        items = dict(items)
        for key in items:
            self._check_key(key)
        d = self.graph.degree
        cap = self.buckets.capacity_items
        with span(
            self.machine,
            "basic_dict.batch_insert",
            op="batch_insert",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
            batch_size=len(items),
        ) as m:
            unique, candidates, staged, holders, failed = (
                self._read_for_update(list(items), m)
            )
            out: Dict[int, Any] = {}
            dirty: Dict[int, None] = {}
            new_keys = 0
            for qi, (key, value) in enumerate(items.items()):
                cands = candidates[qi * d : (qi + 1) * d]
                if failed:
                    lost = self._lost(unique, failed, cands)
                    if lost:
                        out[key] = DegradedModeError(
                            f"upsert of key {key}: {len(lost)} of "
                            f"{self.degree} candidate buckets unreadable; "
                            f"refusing a placement that could duplicate "
                            f"the key",
                            key=key,
                            op="upsert",
                            failures=lost,
                        )
                        continue
                # changed[u]: the new item list of a bucket this key changes
                changed: Dict[int, List[Any]] = {}
                old_fragments: List[Tuple[int, Any]] = []
                for u in holders.get(key, ()):
                    if u in cands:
                        bucket = staged[u]
                        changed[u] = [it for it in bucket if it[0] != key]
                        old_fragments.extend(
                            (t, frag) for (k2, t, frag) in bucket if k2 == key
                        )
                was_present = bool(old_fragments)
                if not was_present and self.size + new_keys >= self.capacity:
                    out[key] = CapacityExceeded(
                        f"dictionary at capacity N={self.capacity}"
                    )
                    continue
                loads = [len(staged[u]) for u in cands]
                for u, bucket in changed.items():
                    loads[cands.index(u)] = len(bucket)
                overflow = False
                for t, frag in enumerate(_split_value(value, self.k)):
                    low = min(loads)
                    j = loads.index(low)
                    u = cands[j]
                    bucket = changed.get(u)
                    if bucket is None:
                        changed[u] = bucket = list(staged[u])
                    bucket.append((key, t, frag))
                    loads[j] = low + 1
                    if low + 1 > cap:
                        overflow = True
                        break
                if overflow:
                    out[key] = CapacityExceeded(
                        f"bucket overflow placing key {key}; the "
                        f"load-balancing guarantee needs a larger bucket "
                        f"array (stripe_size) or larger blocks"
                    )
                    continue
                for u in sorted(changed, key=cands.index):
                    bucket = changed[u]
                    if bucket != staged[u]:
                        staged[u] = bucket
                        dirty[u] = None
                top = max(loads)
                if top > self._max_load_seen:
                    self._max_load_seen = top
                if was_present:
                    old_fragments.sort()
                    out[key] = (
                        True,
                        _join_fragments([f for _, f in old_fragments]),
                    )
                else:
                    new_keys += 1
                    out[key] = (False, None)
            if dirty:
                try:
                    self._write_staged(unique, staged, dirty)
                except DiskFailure as exc:
                    # write_blocks is atomic — nothing was mutated.  Every
                    # key that thought it succeeded degrades, per key.
                    for key, res in list(out.items()):
                        if not isinstance(res, Exception):
                            out[key] = DegradedModeError(
                                f"upsert of key {key}: batch write failed "
                                f"({exc})",
                                key=key,
                                op="upsert",
                                failures={key: exc},
                            )
                    new_keys = 0
            self.size += new_keys
            if m.span is not None:
                m.annotate(
                    size=self.size,
                    max_load=self._max_load_seen,
                    buckets_written=len(dirty),
                )
        return out, m.cost

    def batch_delete(self, keys):
        """Delete many keys with one batched read and one batched write.

        The same planned read and scratch holder index as
        :meth:`batch_insert`; each key's holding buckets lose its items
        (in stripe order) and every dirty bucket is written back in one
        batch.  Per-key outcomes are ``removed`` booleans; keys with an
        unreadable candidate bucket — a failed disk, or a bad frame on
        the file executor — refuse upfront with
        :class:`DegradedModeError` (a delete that cannot see every
        candidate might leave the key alive in a failed bucket).
        """
        keys = list(dict.fromkeys(keys))
        for key in keys:
            self._check_key(key)
        d = self.graph.degree
        with span(
            self.machine,
            "basic_dict.batch_delete",
            op="batch_delete",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
            batch_size=len(keys),
        ) as m:
            unique, candidates, staged, holders, failed = (
                self._read_for_update(keys, m)
            )
            out: Dict[int, Any] = {}
            dirty: Dict[int, None] = {}
            removed_keys = 0
            for qi, key in enumerate(keys):
                cands = candidates[qi * d : (qi + 1) * d]
                if failed:
                    lost = self._lost(unique, failed, cands)
                    if lost:
                        out[key] = DegradedModeError(
                            f"delete of key {key}: {len(lost)} of "
                            f"{self.degree} candidate buckets unreadable",
                            key=key,
                            op="delete",
                            failures=lost,
                        )
                        continue
                held = [u for u in holders.get(key, ()) if u in cands]
                for u in sorted(held, key=cands.index):
                    staged[u] = [it for it in staged[u] if it[0] != key]
                    dirty[u] = None
                out[key] = bool(held)
                if held:
                    removed_keys += 1
            if dirty:
                try:
                    self._write_staged(unique, staged, dirty)
                except DiskFailure as exc:
                    for key, res in list(out.items()):
                        if res is True:
                            out[key] = DegradedModeError(
                                f"delete of key {key}: batch write failed "
                                f"({exc})",
                                key=key,
                                op="delete",
                                failures={key: exc},
                            )
                    removed_keys = 0
            self.size -= removed_keys
        return out, m.cost

    def insert(self, key: int, value: Any = None) -> OpCost:
        found, _, cost = self.upsert(key, value)
        return cost

    def upsert(self, key: int, value: Any = None) -> Tuple[bool, Any, OpCost]:
        """Insert or replace; returns ``(was_present, old_value, cost)``."""
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.upsert",
            op="upsert",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(locs)
            else:
                contents, failures = self.buckets.read_buckets_degraded(locs)
                if failures:
                    # Placing into a surviving choice while the key might be
                    # hiding in a failed bucket could create a duplicate —
                    # a future silent wrong answer.  Mutations need all d
                    # candidate loads; fail before touching anything.
                    if m.span is not None:
                        m.annotate(degraded=True, failed_buckets=len(failures))
                    raise DegradedModeError(
                        f"upsert of key {key}: {len(failures)} of "
                        f"{self.degree} candidate buckets unreadable; "
                        f"refusing a placement that could duplicate the key",
                        key=key,
                        op="upsert",
                        failures=failures,
                    )

            old_fragments: List[Tuple[int, Any]] = []
            dirty: Dict[Tuple[int, int], List[Any]] = {}
            for loc in locs:
                items = contents[loc]
                kept = [it for it in items if it[0] != key]
                if len(kept) != len(items):
                    old_fragments.extend(
                        (t, frag) for (k2, t, frag) in items if k2 == key
                    )
                    contents[loc] = kept
                    dirty[loc] = kept
            was_present = bool(old_fragments)

            if not was_present and self.size >= self.capacity:
                raise CapacityExceeded(
                    f"dictionary at capacity N={self.capacity}"
                )

            # Greedy d-choice placement using the loads the probe fetched.
            fragments = _split_value(value, self.k)
            loads = {loc: len(contents[loc]) for loc in locs}
            for t, frag in enumerate(fragments):
                target = min(locs, key=lambda loc: (loads[loc], loc))
                contents[target] = contents[target] + [(key, t, frag)]
                loads[target] += 1
                dirty[target] = contents[target]
                if loads[target] > self._max_load_seen:
                    self._max_load_seen = loads[target]

            for loc, items in dirty.items():
                if len(items) > self.buckets.capacity_items:
                    raise CapacityExceeded(
                        f"bucket {loc} overflows its {self.buckets.capacity_items}"
                        f"-item capacity; the load-balancing guarantee needs a "
                        f"larger bucket array (stripe_size) or larger blocks"
                    )
            self.buckets.write_buckets(dirty)
            if m.span is not None:
                # Telemetry for the Lemma 3 bound monitor: post-operation
                # occupancy and the worst bucket load ever reached.
                m.annotate(
                    size=self.size + (0 if was_present else 1),
                    max_load=self._max_load_seen,
                    num_buckets=self.num_buckets,
                    degree=self.degree,
                    k=self.k,
                )
        if not was_present:
            self.size += 1
            old_value = None
        else:
            old_fragments.sort()
            old_value = _join_fragments([f for _, f in old_fragments])
        return was_present, old_value, m.cost

    def delete(self, key: int) -> OpCost:
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.delete",
            op="delete",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(locs)
            else:
                contents, failures = self.buckets.read_buckets_degraded(locs)
                if failures:
                    # A delete that cannot see every candidate bucket might
                    # leave the key alive in a failed one; refuse up front
                    # (no partial mutation has happened yet).
                    if m.span is not None:
                        m.annotate(degraded=True, failed_buckets=len(failures))
                    raise DegradedModeError(
                        f"delete of key {key}: {len(failures)} of "
                        f"{self.degree} candidate buckets unreadable",
                        key=key,
                        op="delete",
                        failures=failures,
                    )
            dirty = {}
            removed = False
            for loc in locs:
                items = contents[loc]
                kept = [it for it in items if it[0] != key]
                if len(kept) != len(items):
                    dirty[loc] = kept
                    removed = True
            if dirty:
                self.buckets.write_buckets(dirty)
        if removed:
            self.size -= 1
        return m.cost

    # -- bulk construction -------------------------------------------------------

    def bulk_build(self, items: Dict[int, Any]) -> OpCost:
        """Load a key -> value map into an EMPTY dictionary with batched
        writes.

        Placement is the identical greedy rule run in host memory (the
        load balancer is pure combinatorics; the paper's construction
        sections likewise compute assignments before touching disk), then
        every touched bucket is written in one batch: the cost is
        ``~buckets/D`` parallel I/Os instead of ``2n`` — the bulk analogue
        of Theorem 6's "construction proportional to sorting" theme.
        """
        if self.size:
            raise ValueError("bulk_build requires an empty dictionary")
        if len(items) > self.capacity:
            raise CapacityExceeded(
                f"{len(items)} items exceed capacity N={self.capacity}"
            )
        contents: Dict[Tuple[int, int], List[Any]] = {}
        with span(
            self.machine,
            "basic_dict.bulk_build",
            op="bulk_build",
            structure="basic_dict",
            items=len(items),
        ) as m:
            for key in sorted(items):
                self._check_key(key)
                locs = self._neighborhoods.striped(key)
                fragments = _split_value(items[key], self.k)
                loads = {
                    loc: len(contents.get(loc, ())) for loc in locs
                }
                for t, frag in enumerate(fragments):
                    target = min(locs, key=lambda loc: (loads[loc], loc))
                    contents.setdefault(target, []).append((key, t, frag))
                    loads[target] += 1
                    if loads[target] > self._max_load_seen:
                        self._max_load_seen = loads[target]
            for loc, bucket in contents.items():
                if len(bucket) > self.buckets.capacity_items:
                    raise CapacityExceeded(
                        f"bucket {loc} would hold {len(bucket)} items; "
                        f"capacity is {self.buckets.capacity_items}"
                    )
            self.buckets.write_buckets(contents)
        self.size = len(items)
        return m.cost

    # -- audits --------------------------------------------------------------------

    def stored_keys(self) -> Iterator[int]:
        """All keys currently stored (audit scan; no I/O charged — rebuild
        schedulers charge real I/O through lookup/insert per migrated key)."""
        seen = set()
        for loc in self.buckets.loads():
            for (k2, _t, _frag) in self.buckets.peek(loc):
                if k2 not in seen:
                    seen.add(k2)
                    yield k2

    def recovery_extents(self):
        return self.buckets.extents()

    def current_max_load(self) -> int:
        loads = self.buckets.loads()
        return max(loads.values()) if loads else 0

    def load_histogram(self) -> Dict[int, int]:
        """Map load value -> number of buckets with that load (the
        balanced-allocation telemetry lens; audit scan, no I/O charged).
        Load 0 counts the buckets currently empty."""
        counts: Dict[int, int] = {}
        loads = self.buckets.loads()
        for load in loads.values():
            counts[load] = counts.get(load, 0) + 1
        counts[0] = self.num_buckets - len(loads)
        return {load: counts[load] for load in sorted(counts)}

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicDictionary(n={self.size}/{self.capacity}, d={self.degree}, "
            f"v={self.num_buckets}, k={self.k})"
        )
