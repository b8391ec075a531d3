"""Full bandwidth with ``1 + ɛ`` average I/Os (Section 4.3, Theorem 7).

The static retrieval structure of Theorem 6(a) dynamized first-fit style:

* ``l = log N / log(1/ratio)`` retrieval arrays ``A_1 ⊇ A_2 ⊇ ...`` of
  geometrically shrinking size (paper ratio ``6 eps``), each indexed by its
  **own** expander (same left set ``U``, same degree ``d``, independent edge
  sets — distinct seeds here);
* **insert**: probe ``A_1, A_2, ...`` until an array has ``ceil(2d/3)`` of
  the key's fields free ("unique to x at that moment"), write the record
  chain there (Lemma 5 guarantees at most a ``6 eps`` fraction of keys fall
  through each level, so the probe sequence is geometric and averages
  ``1 + ɛ`` reads plus one write); in parallel, the §4.1 membership
  dictionary records ``(level, head pointer)`` in 2 I/Os — **``2 + ɛ``
  average I/Os** total;
* **lookup**: membership probe and a *speculative* read of the key's ``A_1``
  fields go in the same parallel I/O (disjoint disk groups).  An absent key
  is answered in **1 I/O**; a key on level 1 — the ``1 - O(ratio)`` majority
  — also finishes in 1; deeper keys pay one extra read: **``1 + ɛ``
  average**, worst case ``O(log n)``;
* **delete**: membership removal plus clearing the chain (the paper reclaims
  space via global rebuilding — :mod:`repro.core.rebuilding` — but removing
  in place is already safe and keeps the level free-lists accurate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bits import (
    chain_delta,
    decode_chain,
    encode_chain,
    required_field_bits,
)
from repro.core.basic_dict import BasicDictionary
from repro.core.interface import (
    CapacityExceeded,
    DegradedLookupError,
    DegradedModeError,
    Dictionary,
    LookupResult,
    annotate_round_packing,
)
from repro.core.static_dict import fields_needed
from repro.pdm.errors import DiskFailure
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import resolve_kernel
from repro.pdm.iostats import OpCost
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm.spans import span
from repro.pdm.striping import StripedFieldArray


@dataclass
class OperationStats:
    """Running averages the Theorem 7 bench reports."""

    lookups: int = 0
    lookup_ios: int = 0
    hits: int = 0
    hit_ios: int = 0
    misses: int = 0
    miss_ios: int = 0
    inserts: int = 0
    insert_ios: int = 0
    level_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def avg_lookup_ios(self) -> float:
        return self.lookup_ios / self.lookups if self.lookups else 0.0

    @property
    def avg_hit_ios(self) -> float:
        return self.hit_ios / self.hits if self.hits else 0.0

    @property
    def avg_miss_ios(self) -> float:
        return self.miss_ios / self.misses if self.misses else 0.0

    @property
    def avg_insert_ios(self) -> float:
        return self.insert_ios / self.inserts if self.inserts else 0.0


class DynamicDictionary(Dictionary):
    """Deterministic dynamic dictionary with full bandwidth (§4.3)."""

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        universe_size: int,
        capacity: int,
        sigma: int,
        degree: Optional[int] = None,
        ratio: float = 0.25,
        stripe_slack: float = 4.0,
        min_stripe: int = 8,
        disk_offset: int = 0,
        seed: int = 0,
        kernel: Any = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if sigma <= 0:
            raise ValueError(
                f"sigma must be positive (use BasicDictionary for pure "
                f"membership), got {sigma}"
            )
        if not 0 < ratio < 1:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        self.machine = machine
        self.universe_size = universe_size
        self.capacity = capacity
        self.sigma = sigma
        self.ratio = ratio
        if degree is None:
            degree = (machine.num_disks - disk_offset) // 2
        if degree < 4:
            raise ValueError(f"need degree >= 4, got {degree}")
        if disk_offset + 2 * degree > machine.num_disks:
            raise ValueError(
                f"need {2 * degree} disks from offset {disk_offset}; machine "
                f"has {machine.num_disks}"
            )
        self.degree = degree
        self.m_need = fields_needed(degree)
        self.field_bits = max(
            math.ceil(3 * sigma / (2 * degree)) + 4,
            required_field_bits(sigma, self.m_need, degree),
        )

        self._kernel = resolve_kernel(kernel)
        # Membership sub-dictionary: key -> (level, head pointer).
        self.membership = BasicDictionary(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            degree=degree,
            disk_offset=disk_offset,
            seed=seed + 1,
            kernel=kernel,
        )

        # Geometrically shrinking retrieval arrays, one expander each.
        self.levels: List[StripedFieldArray] = []
        self.level_graphs: List[SeededRandomExpander] = []
        stripe = max(min_stripe, math.ceil(stripe_slack * capacity))
        level = 0
        while True:
            graph = SeededRandomExpander(
                left_size=universe_size,
                degree=degree,
                stripe_size=stripe,
                seed=seed + 101 * (level + 1),
            )
            array = StripedFieldArray(
                machine,
                stripes=degree,
                stripe_size=stripe,
                field_bits=self.field_bits,
                disk_offset=disk_offset + degree,
            )
            self.level_graphs.append(graph)
            self.levels.append(array)
            if stripe <= min_stripe:
                break
            stripe = max(min_stripe, math.ceil(stripe * ratio))
            level += 1
        self.num_levels = len(self.levels)
        self.size = 0
        self.stats = OperationStats()

    @classmethod
    def from_epsilon(
        cls,
        machine: AbstractDiskMachine,
        *,
        universe_size: int,
        capacity: int,
        sigma: int,
        epsilon: float,
        disk_offset: int = 0,
        seed: int = 0,
        **kwargs,
    ) -> "DynamicDictionary":
        """Instantiate with the paper's Theorem 7 parameterization.

        Theorem 7: "Let ɛ be an arbitrary positive value, and choose d, the
        degree of expander graphs, to be larger than ``6 (1 + 1/ɛ)``", with
        level sizes shrinking by ``6 eps`` where ``6 eps < 1/(1 + 1/ɛ)``.
        We take the degree floor (or more if the machine allows), and the
        level ratio at the midpoint of its legal range, then the structure
        delivers ``1 + ɛ`` / ``2 + ɛ`` averages by the geometric-series
        argument.
        """
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        degree_floor = math.floor(6 * (1 + 1 / epsilon)) + 1
        available = (machine.num_disks - disk_offset) // 2
        if available < degree_floor:
            raise ValueError(
                f"Theorem 7 at epsilon={epsilon} needs degree > "
                f"{degree_floor - 1}, i.e. {2 * degree_floor} disks; "
                f"machine offers {2 * available}"
            )
        degree = max(degree_floor, available if available <= 4 * degree_floor
                     else degree_floor)
        # 6 eps' must satisfy 6 eps' < 1/(1 + 1/eps) = eps/(1+eps);
        # the ratio IS 6 eps' — take half the ceiling for margin.
        ratio = min(0.5, (epsilon / (1 + epsilon)) / 2)
        return cls(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            sigma=sigma,
            degree=degree,
            ratio=ratio,
            disk_offset=disk_offset,
            seed=seed,
            **kwargs,
        )

    # -- helpers -----------------------------------------------------------------

    def _read_level(self, level: int, key: int):
        """Read the key's ``d`` fields on one level (one parallel I/O).

        Returns ``(locs, fields, failures)`` where ``failures`` maps the
        unreadable ``(stripe, j)`` locations to their :class:`IOFault`;
        those locations are absent from ``fields``.
        """
        locs = self.level_graphs[level].striped_neighbors(key)
        fields, failures = self.levels[level].read_fields(locs)
        return locs, fields, failures

    def _free_stripes(self, locs, fields, failures) -> List[int]:
        # A field whose state is unknown (unreadable block) can never be
        # claimed free: writing into it could clobber another key's chain.
        return sorted(
            stripe
            for (stripe, j) in locs
            if (stripe, j) not in failures and fields[(stripe, j)] is None
        )

    def _chain_value(
        self, level: int, key: int, fields, locs, head: int, failures
    ) -> int:
        """Decode a key's chain from its level read.

        The retrieval arrays keep exactly one copy of every chain field, so
        a failure on any stripe the chain actually visits is unrecoverable:
        membership is certain (the §4.1 dictionary answered) but the value
        is not, and we raise rather than return a truncated record.
        Failures on the key's *other* neighbor fields are harmless.
        """
        by_stripe = {
            stripe: fields[(stripe, j)]
            for (stripe, j) in locs
            if (stripe, j) not in failures
        }
        try:
            return decode_chain(
                by_stripe, head, self.field_bits, self.sigma, self.degree
            )
        except (KeyError, TypeError) as exc:
            if not failures:
                raise
            raise DegradedLookupError(
                f"key {key}: chain on level {level} crosses "
                f"{len(failures)} unreadable field(s); the dynamic levels "
                f"keep no spare copies",
                key=key,
                failures=dict(failures),
                membership=True,
            ) from exc

    def _chain_locs(self, head: int, locs, fields, failures):
        """Walk a chain from ``head``: ``(chain, leaked)``.

        ``chain`` lists the field locations of the readable links.  The
        walk stops at the last link, or at a broken one — unreadable,
        empty, or outside the key's neighborhood — which counts as one
        ``leaked`` link; the tail beyond it is of unknown length.
        """
        idx = {i: j for (i, j) in locs}
        chain: List[Tuple[int, int]] = []
        stripe = head
        while stripe in idx:
            loc = (stripe, idx[stripe])
            if loc in failures or fields.get(loc) is None:
                break
            chain.append(loc)
            delta = chain_delta(fields[loc], self.field_bits)
            if delta == 0:
                return chain, 0
            stripe += delta
        return chain, 1

    def _clear_chain_best_effort(self, level: int, key: int, head: int):
        """Clear a chain, leaking what cannot be reached.

        Returns ``(leaked, failures)``.  Fields on unreadable stripes — and
        every field *past* the first unreadable link, since the chain walk
        cannot continue — stay occupied.  That costs capacity (first-fit
        sees them as busy), never correctness: membership no longer points
        at them.  ``leaked`` counts only the known-lost links.  On intact
        data this is one level read and one write of the whole chain.
        """
        locs, fields, failures = self._read_level(level, key)
        chain, leaked = self._chain_locs(head, locs, fields, failures)
        try:
            self.levels[level].write_fields(dict.fromkeys(chain))
        except DiskFailure:
            leaked += len(chain)
        return leaked, failures

    def _clear_chain(self, level: int, key: int, head: int) -> OpCost:
        """:meth:`_clear_chain_best_effort` in its own span; its cost."""
        with span(
            self.machine, "dynamic_dict.clear_chain", level=level
        ) as clear:
            leaked, fails = self._clear_chain_best_effort(level, key, head)
            if leaked or fails:
                clear.annotate(degraded=True, leaked_fields=leaked)
        return clear.cost

    def _clear_chains(self, level: int, chains) -> OpCost:
        """Clear many ``(key, head)`` chains of one level in one span (the
        batch forms); its cost."""
        with span(
            self.machine, "dynamic_dict.clear_chain", level=level
        ) as clear:
            if self.machine.faults is not None:
                # Kept fork: per-key clears charge other rounds than one batch.
                leaked = sum(
                    self._clear_chain_best_effort(level, key, head)[0]
                    for key, head in chains
                )
            else:
                locs_map, fields, fails = self._batch_read_level(
                    level, [key for key, _ in chains], clear
                )
                nones: Dict[Tuple[int, int], Any] = {}
                leaked = 0
                for key, head in chains:
                    chain, lost = self._chain_locs(
                        head, locs_map[key], fields, fails
                    )
                    nones.update(dict.fromkeys(chain))
                    leaked += lost
                try:
                    self.levels[level].write_fields(nones)
                except DiskFailure:
                    # Membership already stopped pointing at these chains:
                    # the ops stand, the fields leak — capacity, never lies.
                    leaked += len(nones)
            if leaked:
                clear.annotate(degraded=True, leaked_fields=leaked)
        return clear.cost

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        self._check_key(key)
        with span(
            self.machine,
            "dynamic_dict.lookup",
            op="lookup",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            membership_bpb=self.membership.buckets.blocks_per_bucket,
        ) as root:
            # Phase 1 (parallel): membership probe + speculative level-1 read.
            # The speculative read reports unreadable fields instead of
            # raising: a lost level-0 field is irrelevant when the key is
            # absent or lives on a deeper level.
            with span(self.machine, "dynamic_dict.lookup.phase1", parallel=True):
                mem = self.membership.lookup(key)
                with span(
                    self.machine, "dynamic_dict.speculative_read", level=0
                ) as spec:
                    locs1, fields1, fails1 = self._read_level(0, key)
                    if fails1:
                        spec.annotate(degraded=True, failed_fields=len(fails1))
            cost = OpCost.parallel(mem.cost, spec.cost)
            if not mem.found:
                root.annotate(found=False)
                self.stats.lookups += 1
                self.stats.misses += 1
                self.stats.lookup_ios += cost.total_ios
                self.stats.miss_ios += cost.total_ios
                return LookupResult(False, None, cost)
            level, head = mem.value
            if level == 0:
                value = self._chain_value(0, key, fields1, locs1, head, fails1)
            else:
                with span(
                    self.machine, "dynamic_dict.level_read", level=level
                ) as extra:
                    locs, fields, fails = self._read_level(level, key)
                    if fails:
                        extra.annotate(degraded=True, failed_fields=len(fails))
                cost = cost + extra.cost
                value = self._chain_value(level, key, fields, locs, head, fails)
            if fails1 or (level != 0 and fails):
                root.annotate(degraded=True)
            root.annotate(found=True, level=level)
            self.stats.lookups += 1
            self.stats.hits += 1
            self.stats.lookup_ios += cost.total_ios
            self.stats.hit_ios += cost.total_ios
            return LookupResult(True, value, cost)

    def insert(self, key: int, value: int = None) -> OpCost:
        self._check_key(key)
        if value is None or not 0 <= value < (1 << self.sigma):
            raise ValueError(
                f"value must be an integer in [0, 2^{self.sigma}), got {value!r}"
            )
        if self.size >= self.capacity and not self.membership.contains(key):
            raise CapacityExceeded(f"dictionary at capacity N={self.capacity}")

        with span(
            self.machine,
            "dynamic_dict.insert",
            op="insert",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            membership_bpb=self.membership.buckets.blocks_per_bucket,
        ) as root:
            # Retrieval + membership run on disjoint disk groups in parallel.
            with span(self.machine, "dynamic_dict.insert.place", parallel=True):
                with span(self.machine, "dynamic_dict.first_fit") as ret:
                    placed = None
                    probe_failures = 0
                    for level in range(self.num_levels):
                        # Unreadable fields count as occupied (see
                        # _free_stripes); a level with faults can still
                        # accept the key if enough *verified-free* fields
                        # remain, so first-fit degrades to placing one
                        # level deeper instead of refusing.
                        locs, fields, fails = self._read_level(level, key)
                        probe_failures += len(fails)
                        free = self._free_stripes(locs, fields, fails)
                        if len(free) >= self.m_need:
                            placed = (level, free[: self.m_need], locs)
                            break
                    if probe_failures:
                        ret.annotate(
                            degraded=True, failed_fields=probe_failures
                        )
                    if placed is None:
                        raise CapacityExceeded(
                            f"no level offers {self.m_need} free fields for key "
                            f"{key}; increase stripe_slack or capacity headroom"
                        )
                    level, stripes, locs = placed
                    ret.annotate(level=level)
                    encoded = encode_chain(
                        value, self.sigma, stripes, self.field_bits
                    )
                    stripe_index = {i: j for (i, j) in locs}
                    self.levels[level].write_fields(
                        {(s, stripe_index[s]): bits for s, bits in encoded.items()}
                    )
                head = stripes[0]

                # Membership phase (its own disk group, runs in parallel).
                was_present, old, mem_cost = self.membership.upsert(
                    key, (level, head)
                )
            cost = OpCost.parallel(ret.cost, mem_cost)

            if was_present:
                # Update of an existing key: clear the superseded chain.
                # Membership already points at the new chain, so a fault
                # here can only leak fields, never corrupt an answer —
                # clear what is reachable and count the rest.
                old_level, old_head = old
                with span(
                    self.machine, "dynamic_dict.clear_chain", level=old_level
                ) as clear:
                    leaked, _ = self._clear_chain_best_effort(
                        old_level, key, old_head
                    )
                    if leaked:
                        clear.annotate(degraded=True, leaked_fields=leaked)
                cost = cost + clear.cost
            else:
                self.size += 1

            root.annotate(level=level, was_present=was_present)
            self.stats.inserts += 1
            self.stats.insert_ios += cost.total_ios
            self.stats.level_histogram[level] = (
                self.stats.level_histogram.get(level, 0) + 1
            )
            return cost

    def delete(self, key: int) -> OpCost:
        self._check_key(key)
        with span(
            self.machine,
            "dynamic_dict.delete",
            op="delete",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            membership_bpb=self.membership.buckets.blocks_per_bucket,
        ) as root:
            mem = self.membership.lookup(key)
            if not mem.found:
                root.annotate(found=False)
                return mem.cost
            level, head = mem.value
            # Kept fork: the membership-first order charges serially what
            # the parallel order overlaps.
            if self.machine.faults is not None:
                # Degraded order: retire the membership entry *first* (it
                # refuses upfront when its buckets are unreadable, leaving
                # everything untouched), then clear the chain best-effort.
                # A fault mid-clear leaks fields but the key is already
                # gone — no lookup can ever see the half-cleared chain.
                del_cost = self.membership.delete(key)
                cost = mem.cost + del_cost + self._clear_chain(level, key, head)
            else:
                # Membership delete and chain clearing hit disjoint disk
                # groups; the initial membership read is serial (it
                # supplies the level).
                with span(
                    self.machine, "dynamic_dict.delete.apply", parallel=True
                ):
                    clear_cost = self._clear_chain(level, key, head)
                    del_cost = self.membership.delete(key)
                cost = mem.cost + OpCost.parallel(clear_cost, del_cost)
            self.size -= 1
            root.annotate(found=True, level=level)
            return cost

    # -- batched operations ----------------------------------------------------------
    #
    # The batch paths share the single-op fault discipline (membership-first
    # deletes, fields-then-membership inserts, leak-never-lie) but pack all
    # per-key probes of each phase into round-shared I/Os.  They do NOT
    # update ``self.stats`` — OperationStats counts *single* operations so
    # its per-op averages stay comparable across batch sizes; batches report
    # through spans (``rounds_saved`` et al.) instead.

    def _batch_read_level(self, level: int, keys, handle):
        """One round-packed read of every key's fields on ``level``.

        Returns ``(locs_map, fields, failures)`` where ``fields`` /
        ``failures`` cover the union of all keys' locations.
        """
        locs_map = self.level_graphs[level].batch_striped(
            keys, kernel=self._kernel
        )
        wanted = list(
            dict.fromkeys(loc for locs in locs_map.values() for loc in locs)
        )
        fields, failures = self.levels[level].read_fields(wanted)
        if failures and handle.span is not None:
            handle.annotate(degraded=True, failed_fields=len(failures))
        annotate_round_packing(
            handle, self.machine, self.levels[level], locs_map.values()
        )
        return locs_map, fields, failures

    def batch_lookup(self, keys):
        """Answer many lookups with round-packed level reads.

        Phase 1 runs the batched membership probe in parallel with one
        speculative batched read of every key's level-1 fields; keys that
        land on deeper levels are grouped and read level by level.  An
        unreadable block — injected, or a bad frame the file executor
        reported — fails only the keys whose chains cross it, as
        :class:`DegradedLookupError` values; the batch never fails
        wholesale.
        """
        keys = list(dict.fromkeys(keys))
        for key in keys:
            self._check_key(key)
        with span(
            self.machine,
            "dynamic_dict.batch_lookup",
            op="batch_lookup",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            batch_size=len(keys),
        ) as root:
            with span(
                self.machine, "dynamic_dict.batch_lookup.phase1", parallel=True
            ):
                mem_out, mem_cost = self.membership.batch_lookup(keys)
                with span(
                    self.machine, "dynamic_dict.speculative_read", level=0
                ) as spec:
                    locs0, fields0, fails0 = self._batch_read_level(
                        0, keys, spec
                    )
            cost = OpCost.parallel(mem_cost, spec.cost)
            deeper: Dict[int, List[int]] = {}
            for key in keys:
                mem = mem_out[key]
                if isinstance(mem, Exception) or not mem.found:
                    continue
                level, _head = mem.value
                if level != 0:
                    deeper.setdefault(level, []).append(key)
            level_data: Dict[int, Any] = {}
            for level in sorted(deeper):
                with span(
                    self.machine, "dynamic_dict.level_read", level=level
                ) as extra:
                    level_data[level] = self._batch_read_level(
                        level, deeper[level], extra
                    )
                cost = cost + extra.cost
            out: Dict[int, Any] = {}
            found = 0
            for key in keys:
                mem = mem_out[key]
                if isinstance(mem, Exception):
                    out[key] = mem
                    continue
                if not mem.found:
                    out[key] = LookupResult(False, None, cost)
                    continue
                level, head = mem.value
                if level == 0:
                    locs, fields, fails = locs0[key], fields0, fails0
                else:
                    locs_map, fields, fails = level_data[level]
                    locs = locs_map[key]
                mine = {loc: fails[loc] for loc in locs if loc in fails}
                try:
                    value = self._chain_value(
                        level, key, fields, locs, head, mine
                    )
                except DegradedLookupError as exc:
                    out[key] = exc
                else:
                    out[key] = LookupResult(True, value, cost)
                    found += 1
            root.annotate(batch_found=found)
        return out, cost

    def batch_insert(self, items):
        """Upsert many keys with round-packed level probes and writes.

        First-fit runs level by level over the whole batch at once: one
        batched read per level decides every still-unplaced key, with a
        ``claimed`` set preventing two keys of the same batch from taking
        the same free field.  Chains are written one batched write per
        level, then membership records every pointer in one batched upsert,
        then superseded chains are cleared.  Near capacity the batch admits
        new keys in arrival order, so it can refuse a key a differently
        ordered sequential run would have accepted — it never over-admits.
        """
        items = dict(items)
        for key in items:
            self._check_key(key)
        for key, value in items.items():
            if value is None or not 0 <= value < (1 << self.sigma):
                raise ValueError(
                    f"value must be an integer in [0, 2^{self.sigma}), "
                    f"got {value!r}"
                )
        with span(
            self.machine,
            "dynamic_dict.batch_insert",
            op="batch_insert",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            batch_size=len(items),
        ) as root:
            mem_out, mem_cost = self.membership.batch_lookup(list(items))
            cost = mem_cost
            out: Dict[int, Any] = {}
            admitted: List[int] = []
            budget_used = 0
            for key in items:
                mem = mem_out[key]
                if isinstance(mem, Exception):
                    out[key] = DegradedModeError(
                        f"insert of key {key}: membership probe undecidable "
                        f"({mem})",
                        key=key,
                        op="insert",
                        failures=getattr(mem, "failures", None) or {key: mem},
                    )
                    continue
                if not mem.found:
                    if self.size + budget_used >= self.capacity:
                        out[key] = CapacityExceeded(
                            f"dictionary at capacity N={self.capacity}"
                        )
                        continue
                    budget_used += 1
                admitted.append(key)

            # First-fit over the whole batch, one packed read per level.
            placements: Dict[int, Tuple[int, List[int], Dict[int, int]]] = {}
            remaining = list(admitted)
            claimed: set = set()
            for level in range(self.num_levels):
                if not remaining:
                    break
                with span(
                    self.machine, "dynamic_dict.first_fit", level=level
                ) as probe:
                    locs_map, fields, fails = self._batch_read_level(
                        level, remaining, probe
                    )
                cost = cost + probe.cost
                still = []
                for key in remaining:
                    locs = locs_map[key]
                    idx = {i: j for (i, j) in locs}
                    free = sorted(
                        stripe
                        for (stripe, j) in locs
                        if (stripe, j) not in fails
                        and fields[(stripe, j)] is None
                        and (level, stripe, j) not in claimed
                    )
                    if len(free) >= self.m_need:
                        stripes = free[: self.m_need]
                        placements[key] = (level, stripes, idx)
                        claimed.update(
                            (level, s, idx[s]) for s in stripes
                        )
                    else:
                        still.append(key)
                remaining = still
            for key in remaining:
                out[key] = CapacityExceeded(
                    f"no level offers {self.m_need} free fields for key "
                    f"{key}; increase stripe_slack or capacity headroom"
                )

            # Write chains, one batched write per level.  write_blocks is
            # atomic per call, so a DiskFailure degrades every key of that
            # level and leaks nothing.
            by_level: Dict[int, List[int]] = {}
            for key in placements:
                by_level.setdefault(placements[key][0], []).append(key)
            written: List[int] = []
            for level in sorted(by_level):
                writes: Dict[Tuple[int, int], Any] = {}
                for key in by_level[level]:
                    _, stripes, idx = placements[key]
                    encoded = encode_chain(
                        items[key], self.sigma, stripes, self.field_bits
                    )
                    writes.update(
                        {(s, idx[s]): bits for s, bits in encoded.items()}
                    )
                with span(
                    self.machine, "dynamic_dict.batch_chain_write", level=level
                ) as w:
                    try:
                        self.levels[level].write_fields(writes)
                    except DiskFailure as exc:
                        for key in by_level[level]:
                            out[key] = DegradedModeError(
                                f"insert of key {key}: chain write on level "
                                f"{level} failed ({exc})",
                                key=key,
                                op="insert",
                                failures={key: exc},
                            )
                    else:
                        written.extend(by_level[level])
                cost = cost + w.cost

            # Membership phase: one batched upsert of the new pointers.
            # A key whose membership update fails leaks its freshly written
            # chain (fields busy, unreferenced) — capacity, never lies.
            if written:
                pointers = {
                    key: (placements[key][0], placements[key][1][0])
                    for key in written
                }
                up_out, up_cost = self.membership.batch_insert(pointers)
                cost = cost + up_cost
                new_keys = 0
                to_clear: Dict[int, List[Tuple[int, int]]] = {}
                for key in written:
                    res = up_out[key]
                    if isinstance(res, Exception):
                        out[key] = DegradedModeError(
                            f"insert of key {key}: membership update failed "
                            f"({res}); the new chain is leaked, not visible",
                            key=key,
                            op="insert",
                            failures=getattr(res, "failures", None)
                            or {key: res},
                        )
                        continue
                    was_present, old = res
                    out[key] = (was_present, None)
                    if was_present:
                        old_level, old_head = old
                        to_clear.setdefault(old_level, []).append(
                            (key, old_head)
                        )
                    else:
                        new_keys += 1
                self.size += new_keys

                # Clear superseded chains.  Membership already points at the
                # new chains, so faults here only leak fields.
                for old_level in sorted(to_clear):
                    cost = cost + self._clear_chains(
                        old_level, to_clear[old_level]
                    )
            root.annotate(
                batch_placed=len(written), size=self.size
            )
        return out, cost

    def batch_delete(self, keys):
        """Delete many keys: one batched membership probe + delete, then
        round-packed chain clears grouped by level.

        Keeps the single-op fault ordering — membership entries retire
        first, so a fault mid-clear leaks fields but no lookup can ever see
        a half-cleared chain.
        """
        keys = list(dict.fromkeys(keys))
        for key in keys:
            self._check_key(key)
        with span(
            self.machine,
            "dynamic_dict.batch_delete",
            op="batch_delete",
            structure="dynamic_dict",
            num_levels=self.num_levels,
            batch_size=len(keys),
        ) as root:
            mem_out, mem_cost = self.membership.batch_lookup(keys)
            cost = mem_cost
            out: Dict[int, Any] = {}
            present: Dict[int, Tuple[int, int]] = {}
            for key in keys:
                mem = mem_out[key]
                if isinstance(mem, Exception):
                    out[key] = mem
                elif not mem.found:
                    out[key] = False
                else:
                    present[key] = mem.value
            removed = 0
            if present:
                del_out, del_cost = self.membership.batch_delete(
                    list(present)
                )
                cost = cost + del_cost
                to_clear: Dict[int, List[Tuple[int, int]]] = {}
                for key in present:
                    res = del_out[key]
                    if isinstance(res, Exception):
                        out[key] = res
                        continue
                    out[key] = True
                    removed += 1
                    level, head = present[key]
                    to_clear.setdefault(level, []).append((key, head))
                for level in sorted(to_clear):
                    cost = cost + self._clear_chains(level, to_clear[level])
            self.size -= removed
            root.annotate(batch_removed=removed, size=self.size)
        return out, cost

    # -- bulk construction ----------------------------------------------------------

    def bulk_load(self, items: Dict[int, int]) -> OpCost:
        """Load a key -> value map into an EMPTY dictionary.

        §4.3 dynamizes the static structure; going the other way, an
        initial set is best loaded statically: the Theorem 6 unique-
        neighbor assignment places the bulk of the keys on level 1 with
        batched field writes, the membership dictionary is bulk-built, and
        only the (geometrically few) unassignable keys fall back to
        first-fit inserts.
        """
        if self.size:
            raise ValueError("bulk_load requires an empty dictionary")
        if len(items) > self.capacity:
            raise CapacityExceeded(
                f"{len(items)} items exceed capacity N={self.capacity}"
            )
        from repro.core.static_dict import assign_unique_neighbors

        graph = self.level_graphs[0]
        result = assign_unique_neighbors(
            graph, sorted(items), m_need=self.m_need
        )
        with span(
            self.machine,
            "dynamic_dict.bulk_load",
            op="bulk_load",
            structure="dynamic_dict",
            items=len(items),
        ) as m:
            writes = {}
            membership_items = {}
            for key, stripes in result.assignment.items():
                encoded = encode_chain(
                    items[key], self.sigma, stripes, self.field_bits
                )
                idx = {i: j for (i, j) in graph.striped_neighbors(key)}
                for stripe, bits in encoded.items():
                    writes[(stripe, idx[stripe])] = bits
                membership_items[key] = (0, stripes[0])
            self.levels[0].write_fields(writes)
            self.membership.bulk_build(membership_items)
            self.size = len(result.assignment)
            for key in result.overflow:
                self.insert(key, items[key])
        for key in result.assignment:
            self.stats.level_histogram[0] = (
                self.stats.level_histogram.get(0, 0) + 1
            )
        return m.cost

    # -- audits ---------------------------------------------------------------------

    def stored_keys(self):
        return self.membership.stored_keys()

    def recovery_extents(self):
        ext = self.membership.recovery_extents()
        for arr in self.levels:
            ext.extend(arr.extents())
        return ext

    def level_occupancy(self) -> List[int]:
        """Occupied fields per level (audit; no I/O)."""
        return [arr.occupied_fields() for arr in self.levels]

    @property
    def space_bits(self) -> int:
        bits = sum(arr.total_bits for arr in self.levels)
        b = self.membership.buckets
        bits += b.num_buckets * b.blocks_per_bucket * self.machine.block_bits
        return bits

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicDictionary(n={self.size}/{self.capacity}, "
            f"d={self.degree}, levels={self.num_levels}, sigma={self.sigma})"
        )
