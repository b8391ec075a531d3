"""The almost-optimal one-probe static dictionary (Section 4.2, Theorem 6).

A striped ``(n, eps)``-expander with ``v = O(n d)`` right vertices indexes an
array ``A`` of fields.  Construction assigns every key ``ceil(2d/3)`` of its
neighbors via *unique neighbor* nodes (Lemmas 4–5): at least half the keys
have that many unique neighbors, they get assigned, and the procedure
recurses on the rest — geometrically fewer each round.

Two layouts, by block size (Theorem 6):

* **Case (b)** (small blocks): every field holds a ``lg n``-bit identifier
  plus a ``3 sigma / (2d)``-bit record fragment.  A lookup reads the ``d``
  fields of ``Γ(x)`` in one parallel I/O and looks for an identifier on a
  strict majority of fields; since no two keys share more than ``eps d``
  neighbors, a majority identifier can only belong to ``x`` itself — no key
  comparison needed.  Space ``O(n log u log n + n sigma)`` bits.
* **Case (a)** (``B = Omega(log n)``): two sub-dictionaries on ``2d`` disks,
  queried in parallel.  A §4.1 membership dictionary stores each key with a
  ``lg d``-bit *head pointer*; the retrieval array stores unary-coded
  relative pointers chaining the assigned fields (see :mod:`repro.bits`),
  with all remaining field space holding record data.  Space
  ``O(n (log u + sigma))`` bits — optimal up to a constant.

Lookups take **one parallel I/O** in both cases.  The structure is static:
:meth:`insert` raises (Section 4.3 dynamizes it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bits import (
    decode_chain,
    encode_chain,
    join_record,
    required_field_bits,
    split_record,
)
from repro.core.basic_dict import BasicDictionary
from repro.core.interface import (
    CapacityExceeded,
    DegradedLookupError,
    Dictionary,
    LookupResult,
    annotate_round_packing,
)
from repro.pdm.errors import BlockCorruption, DiskFailure
from repro.expanders.base import StripedExpander
from repro.expanders.neighborhoods import NeighborhoodMemo
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import resolve_kernel
from repro.pdm.iostats import OpCost
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm.spans import span
from repro.pdm.striping import StripedFieldArray

#: the fraction of a key's neighbors that get assigned: ceil(2d/3).
def fields_needed(degree: int) -> int:
    return -(-2 * degree // 3)


def fault_tolerance(degree: int) -> int:
    """Maximum unreadable assigned fields a degraded lookup survives.

    With ``m = ceil(2d/3)`` assigned fields and a strict-majority-of-``m``
    decode bar, losing ``f <= floor((m - 1) / 2)`` fields still leaves the
    true identifier with more than ``m/2`` votes, while any impostor holds
    at most ``eps * d < d/3 <= m/2`` shared-neighbor fields — so both the
    positive answer and the miss stay sound up to exactly this threshold.
    """
    return (fields_needed(degree) - 1) // 2


@dataclass
class AssignmentResult:
    """Output of the unique-neighbor assignment recursion."""

    assignment: Dict[int, Tuple[int, ...]]  # key -> assigned stripes (sorted)
    rounds: int
    round_sizes: List[int]
    overflow: List[int]  # keys that could not be assigned (should be empty)


def assign_unique_neighbors(
    graph: StripedExpander,
    keys: Sequence[int],
    *,
    m_need: Optional[int] = None,
    max_rounds: int = 64,
) -> AssignmentResult:
    """The recursive assignment of Theorem 6's construction (in-memory form;
    :mod:`repro.core.static_construction` reproduces it through external
    sorting with identical output).

    Each round computes ``Φ(S)`` for the still-unassigned ``S``; keys owning
    at least ``m_need`` unique neighbors take their first ``m_need`` (in
    stripe order), and the rest recurse.  Rounds never conflict: a field
    unique to ``x`` within ``S`` is not a neighbor of any other key of ``S``,
    so later rounds (subsets of ``S``) cannot touch it.
    """
    if m_need is None:
        m_need = fields_needed(graph.degree)
    neighbors = graph.batch_striped(list(dict.fromkeys(keys)))
    remaining = list(neighbors)
    s = graph.stripe_size
    assignment: Dict[int, Tuple[int, ...]] = {}
    round_sizes: List[int] = []
    rounds = 0
    while remaining and rounds < max_rounds:
        owner: Dict[int, Optional[int]] = {}
        for x in remaining:
            for (i, j) in neighbors[x]:
                y = i * s + j
                owner[y] = x if y not in owner else None
        assigned_now: List[int] = []
        still: List[int] = []
        for x in remaining:
            uniq_stripes = [
                i for (i, j) in neighbors[x] if owner.get(i * s + j) == x
            ]
            if len(uniq_stripes) >= m_need:
                assignment[x] = tuple(sorted(uniq_stripes)[:m_need])
                assigned_now.append(x)
            else:
                still.append(x)
        if not assigned_now:
            break
        round_sizes.append(len(assigned_now))
        remaining = still
        rounds += 1
    return AssignmentResult(
        assignment=assignment,
        rounds=rounds,
        round_sizes=round_sizes,
        overflow=remaining,
    )


@dataclass
class StaticBuildReport:
    """Construction statistics (compared against sort(nd) in benchmarks)."""

    n: int
    case: str
    rounds: int
    cost: OpCost
    membership_cost: OpCost
    space_bits: int
    overflow: int


class StaticDictionary(Dictionary):
    """One-probe static dictionary (build via :meth:`build`)."""

    def __init__(self):  # pragma: no cover - guidance only
        raise TypeError("use StaticDictionary.build(...)")

    @classmethod
    def build(
        cls,
        machine: AbstractDiskMachine,
        items: Mapping[int, int],
        *,
        universe_size: int,
        sigma: int,
        case: str = "a",
        degree: Optional[int] = None,
        stripe_slack: float = 4.0,
        seed: int = 0,
        disk_offset: int = 0,
        graph: Optional[StripedExpander] = None,
        strict: bool = True,
        construction: str = "fast",
        redundancy: str = "standard",
        kernel: Any = None,
    ) -> "StaticDictionary":
        """Construct the dictionary for a fixed key -> value map.

        ``sigma`` is the satellite size in bits; values are integers in
        ``[0, 2^sigma)``.  ``case`` is ``'a'`` or ``'b'`` per Theorem 6.
        ``strict`` controls whether unassignable keys (possible only when
        the graph's expansion is inadequate for the parameters) raise or are
        reported in the build report.  ``construction='extsort'`` runs the
        assignment through the paper's external-sorting procedure
        (:mod:`repro.core.static_construction`) so its ``O(sort(nd))`` I/O
        cost is measured; ``'fast'`` computes the identical assignment in
        host memory and charges only the field/membership writes.

        ``redundancy`` (case 'b' only) selects the fragment layout:
        ``'standard'`` is the paper's — each of the ``m = ceil(2d/3)``
        fields holds a distinct ``ceil(sigma/m)``-bit record fragment, so
        losing any fragment loses record bits (membership stays decidable
        up to :func:`fault_tolerance` lost fields, but the value does not
        survive).  ``'replicate'`` stores the *full* record in every
        assigned field (``m``-way replication, ``field_bits = lg n +
        sigma``): degraded lookups then reconstruct the value from any
        surviving field and can read-repair corrupted ones — the space /
        fault-tolerance trade-off made explicit.
        """
        self = object.__new__(cls)
        if case not in ("a", "b"):
            raise ValueError(f"case must be 'a' or 'b', got {case!r}")
        if redundancy not in ("standard", "replicate"):
            raise ValueError(
                f"redundancy must be 'standard' or 'replicate', got "
                f"{redundancy!r}"
            )
        if redundancy == "replicate" and case != "b":
            raise ValueError(
                "redundancy='replicate' applies to case 'b' only; case 'a' "
                "chains fragments through unary pointers and cannot replicate"
            )
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        n = len(items)
        if n == 0:
            raise ValueError("cannot build a static dictionary over no keys")
        self.universe_size = universe_size
        self.sigma = sigma
        self.case = case
        self.redundancy = redundancy
        self.machine = machine
        self.n = n
        self._kernel = resolve_kernel(kernel)

        groups = 2 if case == "a" else 1
        if graph is not None:
            degree = graph.degree
        if degree is None:
            degree = (machine.num_disks - disk_offset) // groups
        if degree < 4:
            raise ValueError(
                f"need degree >= 4 (paper: d > 12 for eps = 1/12), got {degree}"
            )
        if disk_offset + groups * degree > machine.num_disks:
            raise ValueError(
                f"case ({case}) needs {groups * degree} disks from offset "
                f"{disk_offset}; machine has {machine.num_disks}"
            )
        self.degree = degree
        self.m_need = fields_needed(degree)
        stripe_size = (
            graph.stripe_size if graph is not None
            else max(1, math.ceil(stripe_slack * n))
        )
        if graph is None:
            graph = SeededRandomExpander(
                left_size=universe_size,
                degree=degree,
                stripe_size=stripe_size,
                seed=seed,
            )
        self.graph = graph
        self._neighborhoods = NeighborhoodMemo(graph, memory=machine.memory)

        keys_sorted = sorted(items)
        for key in keys_sorted:
            self._check_key(key)
        for key, value in items.items():
            if not 0 <= value < (1 << max(sigma, 1)):
                raise ValueError(
                    f"value {value} of key {key} does not fit in sigma="
                    f"{sigma} bits"
                )

        snap = machine.stats.snapshot()
        self.external_report = None
        if construction == "extsort":
            from repro.core.static_construction import external_assignment

            assignment, ext_report = external_assignment(
                machine, graph, keys_sorted, m_need=self.m_need
            )
            result = AssignmentResult(
                assignment=assignment,
                rounds=ext_report.rounds,
                round_sizes=ext_report.round_sizes,
                overflow=ext_report.overflow,
            )
            self.external_report = ext_report
        elif construction == "fast":
            result = assign_unique_neighbors(
                graph, keys_sorted, m_need=self.m_need
            )
        else:
            raise ValueError(
                f"construction must be 'fast' or 'extsort', got {construction!r}"
            )
        if result.overflow and strict:
            raise CapacityExceeded(
                f"{len(result.overflow)} keys could not be assigned "
                f"{self.m_need} unique neighbors; enlarge stripe_slack or "
                f"the degree"
            )
        self.assignment = result.assignment

        self.ident_bits = max(1, math.ceil(math.log2(max(n, 2))))
        self._ident = {key: rank for rank, key in enumerate(keys_sorted)}

        membership_cost = OpCost.zero()
        if case == "b":
            self.membership = None
            if redundancy == "replicate":
                self.frag_bits = sigma
            else:
                self.frag_bits = math.ceil(sigma / self.m_need)
            self.field_bits = self.ident_bits + self.frag_bits
            self.array = StripedFieldArray(
                machine,
                stripes=degree,
                stripe_size=stripe_size,
                field_bits=self.field_bits,
                disk_offset=disk_offset,
            )
            self._fill_case_b(items)
        else:
            self.membership = BasicDictionary(
                machine,
                universe_size=universe_size,
                capacity=n,
                degree=degree,
                disk_offset=disk_offset,
                seed=seed + 1,
                kernel=kernel,
            )
            if sigma > 0:
                self.field_bits = max(
                    math.ceil(3 * sigma / (2 * degree)) + 4,
                    required_field_bits(sigma, self.m_need, degree),
                )
                self.array = StripedFieldArray(
                    machine,
                    stripes=degree,
                    stripe_size=stripe_size,
                    field_bits=self.field_bits,
                    disk_offset=disk_offset + degree,
                )
            else:
                self.field_bits = 0
                self.array = None
            mem_snap = machine.stats.snapshot()
            self._fill_case_a(items)
            membership_cost = machine.stats.since(mem_snap)

        self.report = StaticBuildReport(
            n=n,
            case=case,
            rounds=result.rounds,
            cost=machine.stats.since(snap),
            membership_cost=membership_cost,
            space_bits=self.space_bits,
            overflow=len(result.overflow),
        )
        return self

    # -- construction fills ---------------------------------------------------

    def _fill_case_b(self, items: Mapping[int, int]) -> None:
        replicate = self.redundancy == "replicate"
        writes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        stripe_index = self._stripe_index_map()
        for key, stripes in self.assignment.items():
            value = items[key]
            if replicate:  # every field holds the whole record
                frags = split_record(value, self.sigma, self.sigma, 1) * len(stripes)
            else:
                frags = split_record(value, self.sigma, self.frag_bits, self.m_need)
            ident = self._ident[key]
            for stripe, frag in zip(stripes, frags):
                writes[(stripe, stripe_index[key][stripe])] = (ident, frag)
        self.array.write_fields(writes)

    def _fill_case_a(self, items: Mapping[int, int]) -> None:
        stripe_index = self._stripe_index_map()
        writes: Dict[Tuple[int, int], int] = {}
        heads: Dict[int, int] = {}
        for key, stripes in self.assignment.items():
            heads[key] = stripes[0]
            if self.array is not None:
                encoded = encode_chain(
                    items[key], self.sigma, stripes, self.field_bits
                )
                for stripe, contents in encoded.items():
                    writes[(stripe, stripe_index[key][stripe])] = contents
        # Static construction: fill the membership dictionary with batched
        # writes rather than n individual 2-I/O inserts.
        self.membership.bulk_build(heads)
        if self.array is not None:
            self.array.write_fields(writes)

    def _stripe_index_map(self) -> Dict[int, Dict[int, int]]:
        """key -> {stripe -> index within stripe} over its neighbors."""
        neighbors = self.graph.batch_striped(
            list(self.assignment), kernel=self._kernel
        )
        return {key: dict(locs) for key, locs in neighbors.items()}

    # -- operations -----------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        self._check_key(key)
        if self.case == "b":
            return self._lookup_case_b(key)
        return self._lookup_case_a(key)

    def _lookup_case_b(self, key: int) -> LookupResult:
        with span(
            self.machine,
            "static_dict.lookup",
            op="lookup",
            structure="static_dict",
            case="b",
        ) as m:
            locs = self._neighborhoods.striped(key)
            fields, failures = self.array.read_fields(locs)
            if failures and m.span is not None:
                m.annotate(degraded=True, failed_fields=len(failures))
            found, value = self._settle_case_b(key, locs, fields, failures, m)
            if m.span is not None:
                m.annotate(found=found)
        # m.cost is only final once the span has exited.
        return LookupResult(found, value, m.cost)

    def _settle_case_b(
        self,
        key: int,
        locs: List[Tuple[int, int]],
        fields: Dict[Tuple[int, int], Any],
        failures: Dict[Tuple[int, int], Exception],
        m,
    ) -> Tuple[bool, Optional[int]]:
        """Decode one key from prefetched fields (single or batched read).

        ``fields``/``failures`` may cover more locations than this key's;
        only the key's own probes vote and only its own failures count
        against the tolerance.
        """
        mine = {loc: failures[loc] for loc in locs if loc in failures}
        counts: Dict[int, int] = {}
        for loc in locs:
            if loc in mine:
                continue
            val = fields[loc]
            if val is not None:
                ident = val[0]
                counts[ident] = counts.get(ident, 0) + 1
        # Decode bar: a strict majority of the m = ceil(2d/3) *assigned*
        # fields.  On intact data this answers identically to a
        # majority-of-d bar (a present key holds all m > d/2 fields, an
        # impostor at most eps*d < d/3 <= m/2), but it stays correct
        # when fields are legitimately missing — after a fault, or after
        # read-repair scrubbed a field's block slot.
        bar = self.m_need / 2
        majority = None
        for ident, cnt in counts.items():
            if cnt > bar:
                majority = ident
                break
        if majority is None and mine:
            if len(mine) > fault_tolerance(self.degree):
                # A present key could have lost its majority entirely:
                # a miss would be a guess, so fail loudly instead.
                raise DegradedLookupError(
                    f"key {key}: {len(mine)} of {self.degree} fields "
                    f"unreadable exceeds the tolerance of "
                    f"{fault_tolerance(self.degree)}; membership "
                    f"undecidable",
                    key=key,
                    failures=mine,
                )
            # f <= floor((m-1)/2): even a present key keeps > m/2
            # surviving votes, so the absence of a majority proves a
            # genuine miss.
        found = majority is not None
        value: Optional[int] = None
        if found:
            frags = [
                (stripe, fields[(stripe, j)][1])
                for (stripe, j) in locs
                if (stripe, j) not in mine
                and fields[(stripe, j)] is not None
                and fields[(stripe, j)][0] == majority
            ]
            frags.sort()
            value = self._decode_record(key, frags, mine)
            if mine:
                self._read_repair(key, majority, value, mine, m)
        return found, value

    def _decode_record(
        self,
        key: int,
        frags: List[Tuple[int, int]],
        failures: Dict[Tuple[int, int], Exception],
    ) -> Optional[int]:
        """Reconstruct the record once presence is established.

        Replicated layout: any surviving copy is the whole record.
        Standard layout: all ``m`` distinct fragments are required — if any
        assigned field was lost, membership is known but the value is not,
        and pretending otherwise would return a truncated record.
        """
        if not self.sigma:
            return None
        if self.redundancy == "replicate":
            return frags[0][1]
        if len(frags) == self.m_need:
            return join_record(
                [frag for _, frag in frags], self.sigma, self.frag_bits
            )
        raise DegradedLookupError(
            f"key {key} is present but {self.m_need - len(frags)} of its "
            f"{self.m_need} record fragments are unreadable "
            f"(redundancy='standard' keeps no spare copies; build with "
            f"redundancy='replicate' for value survival)",
            key=key,
            failures=failures,
            membership=True,
        )

    def _read_repair(
        self,
        key: int,
        majority: int,
        value: Optional[int],
        failures: Dict[Tuple[int, int], Exception],
        handle,
    ) -> None:
        """Heal corrupted fields of ``key`` from the reconstructed record.

        Recovery (not the one-probe hot path) may consult the construction
        metadata, the way a scrubber would: only fields the assignment
        actually gave to ``key`` are rewritten, and only for *corruption*
        failures — an outage has nothing to write to, and a transient left
        the medium intact.  Repair I/O is charged as ``repair_ios`` inside
        the lookup span.
        """
        if self.redundancy != "replicate":
            return
        assigned = set(self.assignment.get(key, ()))
        repairs = {
            loc: (majority, value or 0)
            for loc, fault in failures.items()
            if isinstance(fault, BlockCorruption) and loc[0] in assigned
        }
        if not repairs:
            return
        try:
            self.array.repair_fields(repairs)
        except DiskFailure:
            return  # the disk went down between read and repair; next time
        if handle.span is not None:
            handle.annotate(repaired_fields=len(repairs))

    def _lookup_case_a(self, key: int) -> LookupResult:
        # The two sub-dictionaries live on disjoint disk groups and are
        # probed simultaneously: combine costs with `parallel`.
        with span(
            self.machine,
            "static_dict.lookup",
            op="lookup",
            structure="static_dict",
            case="a",
            parallel=True,
        ):
            # Membership handles its own degradation: an undecidable probe
            # raises DegradedLookupError from inside the basic dictionary.
            mem_result = self.membership.lookup(key)
            if self.array is None:
                return mem_result
            with span(self.machine, "static_dict.field_read") as m:
                locs = self._neighborhoods.striped(key)
                fields, failures = self.array.read_fields(locs)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_fields=len(failures))
        cost = OpCost.parallel(mem_result.cost, m.cost)
        if not mem_result.found:
            # Sound regardless of field failures: membership alone decides
            # absence, and it answered (or raised) on its own redundancy.
            return LookupResult(False, None, cost)
        value = self._settle_case_a(key, mem_result.value, locs, fields, failures)
        return LookupResult(True, value, cost)

    def _settle_case_a(
        self,
        key: int,
        head: int,
        locs: List[Tuple[int, int]],
        fields: Dict[Tuple[int, int], Any],
        failures: Dict[Tuple[int, int], Exception],
    ) -> int:
        """Decode a present key's record chain from prefetched fields.

        ``fields``/``failures`` may cover more locations than this key's.
        A failure on a stripe the assignment gave the key loses a chain
        link, and case 'a' keeps no spare copies: raise rather than return
        a truncated record.  Failures on its other neighbors are harmless.
        """
        mine = {loc: failures[loc] for loc in locs if loc in failures}
        if mine:
            assigned = set(self.assignment.get(key, ()))
            lost = [loc for loc in mine if loc[0] in assigned]
            if lost:
                raise DegradedLookupError(
                    f"key {key} is present but {len(lost)} of its chained "
                    f"record fields are unreadable (case 'a' unary chains "
                    f"keep no spare copies)",
                    key=key,
                    failures=mine,
                    membership=True,
                )
        by_stripe = {
            stripe: fields[(stripe, j)]
            for (stripe, j) in locs
            if (stripe, j) not in mine
        }
        return decode_chain(
            by_stripe, head, self.field_bits, self.sigma, self.degree
        )

    def batch_lookup(self, keys):
        """Answer many lookups with one round-packed field read.

        The assigned fields of every key in the batch are fetched as a
        single batch; shared blocks deduplicate, so ``m`` uniform one-probe
        lookups cost ``⌈m/D⌉ + O(1)`` rounds instead of ``m``.  An
        unreadable block — injected, or a bad frame the file executor
        reported — fails only the keys that cannot be decided without it,
        as :class:`DegradedLookupError` values; the batch never fails
        wholesale.
        """
        keys = list(dict.fromkeys(keys))
        for key in keys:
            self._check_key(key)
        if self.case == "b":
            return self._batch_lookup_case_b(keys)
        return self._batch_lookup_case_a(keys)

    def _batch_lookup_case_b(self, keys):
        with span(
            self.machine,
            "static_dict.batch_lookup",
            op="batch_lookup",
            structure="static_dict",
            case="b",
            batch_size=len(keys),
        ) as m:
            all_locs = self._neighborhoods.batch_striped(
                keys, kernel=self._kernel
            )
            wanted = list(
                dict.fromkeys(loc for locs in all_locs.values() for loc in locs)
            )
            fields, failures = self.array.read_fields(wanted)
            if failures and m.span is not None:
                m.annotate(degraded=True, failed_fields=len(failures))
            annotate_round_packing(m, self.machine, self.array, all_locs.values())
            settled: Dict[int, Any] = {}
            for key in keys:
                try:
                    settled[key] = self._settle_case_b(
                        key, all_locs[key], fields, failures, m
                    )
                except DegradedLookupError as exc:
                    settled[key] = exc
        out: Dict[int, Any] = {}
        for key, res in settled.items():
            if isinstance(res, Exception):
                out[key] = res
            else:
                found, value = res
                out[key] = LookupResult(found, value, m.cost)
        return out, m.cost

    def _batch_lookup_case_a(self, keys):
        with span(
            self.machine,
            "static_dict.batch_lookup",
            op="batch_lookup",
            structure="static_dict",
            case="a",
            batch_size=len(keys),
            parallel=True,
        ):
            # Membership batches on its own; per-key undecidable probes come
            # back as exception values from the basic dictionary.
            mem_out, mem_cost = self.membership.batch_lookup(keys)
            if self.array is None:
                return mem_out, mem_cost
            with span(self.machine, "static_dict.batch_field_read") as m:
                all_locs = self._neighborhoods.batch_striped(
                    keys, kernel=self._kernel
                )
                wanted = list(
                    dict.fromkeys(
                        loc for locs in all_locs.values() for loc in locs
                    )
                )
                fields, failures = self.array.read_fields(wanted)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_fields=len(failures))
                annotate_round_packing(
                    m, self.machine, self.array, all_locs.values()
                )
        cost = OpCost.parallel(mem_cost, m.cost)
        out: Dict[int, Any] = {}
        for key in keys:
            mem = mem_out[key]
            if isinstance(mem, Exception):
                out[key] = mem
                continue
            if not mem.found:
                # Sound regardless of field failures: membership alone
                # decides absence on its own redundancy.
                out[key] = LookupResult(False, None, cost)
                continue
            try:
                value = self._settle_case_a(
                    key, mem.value, all_locs[key], fields, failures
                )
            except DegradedLookupError as exc:
                out[key] = exc
            else:
                out[key] = LookupResult(True, value, cost)
        return out, cost

    def insert(self, key: int, value: int = None) -> OpCost:
        raise NotImplementedError(
            "StaticDictionary is static; use DynamicDictionary (Section 4.3) "
            "or rebuild"
        )

    # -- recovery hooks -----------------------------------------------------

    def recovery_extents(self):
        ext = []
        if self.array is not None:
            ext.extend(self.array.extents())
        if self.membership is not None:
            ext.extend(self.membership.recovery_extents())
        return ext

    def reconstruct_round_bound(self):
        if (
            self.case == "b"
            and self.redundancy == "replicate"
            and self.array is not None
        ):
            # One reconstruction batch touches at most every block of a
            # replica stripe on each surviving disk.
            return self.array.blocks_per_stripe
        return 1

    def _field_owners(self) -> Dict[Tuple[int, int], int]:
        """Reverse of the construction fill: ``(stripe, index) -> key``.
        Built lazily — only recovery walks it, never the one-probe path."""
        owners = getattr(self, "_owner_map", None)
        if owners is None:
            owners = {}
            simap = self._stripe_index_map()
            self._simap = simap
            for key, stripes in self.assignment.items():
                for s in stripes:
                    owners[(s, simap[key][s])] = key
            self._owner_map = owners
        return owners

    def reconstruct_block(self, addr):
        """Rebuild one lost field-array block from replica majority.

        Only the replicated case-'b' layout keeps spare copies: each slot
        of the lost block held some key's full ``(ident, record)`` field,
        and the same pair lives on every *other* stripe the assignment
        gave that key.  The read reports unreadable replicas instead of
        raising (surviving replicas may themselves be faulted), and each
        slot is restored only when an identifier wins a strict majority of
        the key's ``m`` assigned fields — the same decode bar as a lookup,
        so a reconstructed block can never contain data a lookup would not
        have vouched for.  Slots with no surviving majority stay empty
        (loud data loss on next lookup, never silent garbage).

        Callers charge the reads as repair I/O
        (:meth:`~repro.pdm.machine.AbstractDiskMachine.attribute_repair`).
        Returns ``(payload, used_bits)`` or ``None`` if the block is not
        reconstructible from this structure.
        """
        if (
            self.case != "b"
            or self.redundancy != "replicate"
            or self.array is None
        ):
            return None
        arr = self.array
        disk, block_index = addr
        stripe = disk - arr.disk_offset
        if not 0 <= stripe < arr.stripes:
            return None
        base = arr._base[stripe]
        if not base <= block_index < base + arr.blocks_per_stripe:
            return None
        owners = self._field_owners()
        fpb = arr.fields_per_block
        slot_plan: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        wanted: Dict[Tuple[int, int], None] = {}
        for slot in range(fpb):
            index = (block_index - base) * fpb + slot
            if index >= arr.stripe_size:
                break
            key = owners.get((stripe, index))
            if key is None:
                continue
            simap = self._simap[key]
            locs = [
                (s, simap[s]) for s in self.assignment[key] if s != stripe
            ]
            slot_plan.append((slot, key, locs))
            for loc in locs:
                wanted[loc] = None
        if not slot_plan:
            return [None] * fpb, 0
        values, _failures = arr.read_fields(wanted)
        payload: List[Any] = [None] * fpb
        bar = self.m_need / 2
        for slot, key, locs in slot_plan:
            counts: Dict[int, int] = {}
            sample: Dict[int, Any] = {}
            for loc in locs:
                val = values.get(loc)
                if val is None:
                    continue
                ident = val[0]
                counts[ident] = counts.get(ident, 0) + 1
                sample[ident] = val
            for ident, cnt in counts.items():
                if cnt > bar:
                    payload[slot] = (ident, sample[ident][1])
                    break
        used = sum(1 for v in payload if v is not None) * arr.field_bits
        return payload, used

    # -- audits -------------------------------------------------------------------------

    @property
    def space_bits(self) -> int:
        """Declared external space of the structure."""
        bits = 0
        if self.array is not None:
            bits += self.array.total_bits
        if self.membership is not None:
            b = self.membership.buckets
            bits += (
                b.num_buckets * b.blocks_per_bucket * self.machine.block_bits
            )
        return bits

    def __len__(self) -> int:
        return self.n
