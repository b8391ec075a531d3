"""Common dictionary interface and result types.

All dictionaries in this library (the paper's constructions and the
randomized baselines) expose the same surface so the Figure 1 benchmark can
drive them interchangeably:

* ``lookup(key) -> LookupResult`` — membership plus satellite data plus the
  parallel-I/O cost of this very operation;
* ``insert(key, value) -> OpCost`` — upsert semantics;
* ``delete(key) -> OpCost`` — where supported.

Keys are integers from the universe ``[0, universe_size)``; the type of
``value`` depends on the structure (arbitrary objects for bucket stores,
``sigma``-bit integers for the bit-packed retrieval structures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.pdm.errors import IOFault
from repro.pdm.iostats import OpCost


class CapacityExceeded(Exception):
    """The structure's declared capacity ``N`` (or a bucket/level bound that
    the paper's lemmas keep safe at proper parameters) would be violated."""


class DegradedModeError(Exception):
    """An operation could not complete correctly under injected faults.

    Raised by the degraded-mode paths when the surviving redundancy is no
    longer sufficient to *guarantee* a correct answer — the loud-failure
    contract: a dictionary under faults either answers correctly or raises
    this (or a typed :class:`repro.pdm.errors.IOFault`), never returns a
    silently wrong result.

    ``failures`` carries the per-location faults that pushed the operation
    past its tolerance, so chaos reports can attribute every failed op.
    """

    def __init__(self, message: str, *, key: Optional[int] = None,
                 op: str = "", failures: Any = None):
        super().__init__(message)
        self.key = key
        self.op = op
        self.failures = failures if failures is not None else {}


class DegradedLookupError(DegradedModeError):
    """A lookup lost too many of its redundant probes.

    For the one-probe static dictionary this means more than
    ``floor((ceil(2d/3) - 1) / 2)`` of the key's assigned fields were
    unreadable, so a majority among the surviving fields is no longer
    decisive.  ``membership`` (when not ``None``) preserves what *is* still
    known soundly: ``True``/``False`` if presence could be decided even
    though the value could not be reconstructed.
    """

    def __init__(self, message: str, *, key: Optional[int] = None,
                 op: str = "lookup", failures: Any = None,
                 membership: Optional[bool] = None):
        super().__init__(message, key=key, op=op, failures=failures)
        self.membership = membership


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one lookup."""

    found: bool
    value: Any
    cost: OpCost

    def __bool__(self) -> bool:
        return self.found


def annotate_round_packing(handle, machine, store, per_key_locs) -> None:
    """Record round-packing telemetry on a batch span.

    ``rounds_batched`` is what the batch's block probes cost packed into
    shared parallel rounds; ``rounds_sequential`` what the same probes cost
    issued one key at a time.  ``store`` is any striped store exposing
    ``block_addrs(locs)``.
    """
    if handle.span is None:
        return
    per_key = [store.block_addrs(locs) for locs in per_key_locs]
    batched = machine.plan_rounds([a for addrs in per_key for a in addrs])
    sequential = sum(machine.batch_rounds(addrs) for addrs in per_key)
    handle.annotate(
        rounds_batched=batched.num_rounds,
        rounds_sequential=sequential,
        rounds_saved=sequential - batched.num_rounds,
        blocks_deduplicated=batched.duplicates,
    )


class Dictionary:
    """Abstract dictionary in the parallel disk model."""

    #: size of the key universe U.
    universe_size: int

    def lookup(self, key: int) -> LookupResult:
        raise NotImplementedError

    def insert(self, key: int, value: Any = None) -> OpCost:
        raise NotImplementedError

    def delete(self, key: int) -> OpCost:
        raise NotImplementedError(
            f"{type(self).__name__} does not support deletions directly; "
            f"wrap it in a RebuildingDictionary"
        )

    def contains(self, key: int) -> bool:
        return self.lookup(key).found

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    # -- dict-like conveniences (each performs real, charged I/O) ------------

    def __getitem__(self, key: int) -> Any:
        result = self.lookup(key)
        if not result.found:
            raise KeyError(key)
        return result.value

    def __setitem__(self, key: int, value: Any) -> None:
        self.insert(key, value)

    def __delitem__(self, key: int) -> None:
        if not self.lookup(key).found:
            raise KeyError(key)
        self.delete(key)

    def get(self, key: int, default: Any = None) -> Any:
        result = self.lookup(key)
        return result.value if result.found else default

    # -- batched operations --------------------------------------------------
    #
    # The contract shared by every implementation: duplicate keys collapse
    # (one outcome per distinct key, last value wins for inserts), and
    # *per-key* fault conditions
    # (degraded reads, capacity, surviving I/O faults) surface as exception
    # values in the result map — a batch never raises wholesale for a
    # condition that only poisons some of its keys.  Programming errors
    # (keys outside the universe) still raise eagerly.
    #
    # These base versions simply loop the single-key operations — correct
    # for every structure, with no round savings.  The paper dictionaries
    # override them with round-packed implementations that batch all
    # per-key block probes into shared parallel I/Os.

    #: exception types that are per-key *outcomes* in a batch, not aborts.
    BATCH_KEY_ERRORS = (CapacityExceeded, DegradedModeError, IOFault)

    def batch_lookup(
        self, keys: Iterable[int]
    ) -> Tuple[Dict[int, Union[LookupResult, Exception]], OpCost]:
        out: Dict[int, Union[LookupResult, Exception]] = {}
        total = OpCost.zero()
        for key in dict.fromkeys(keys):
            try:
                result = self.lookup(key)
            except self.BATCH_KEY_ERRORS as exc:
                out[key] = exc
            else:
                out[key] = result
                total = total + result.cost
        return out, total

    def batch_insert(
        self, items: Mapping[int, Any]
    ) -> Tuple[Dict[int, Union[Tuple[bool, Any], Exception]], OpCost]:
        """Insert/upsert many keys; per-key outcome is ``(was_present,
        old_value)`` or a typed exception."""
        out: Dict[int, Union[Tuple[bool, Any], Exception]] = {}
        total = OpCost.zero()
        for key, value in dict(items).items():
            try:
                was_present = self.lookup(key).found
                cost = self.insert(key, value)
            except self.BATCH_KEY_ERRORS as exc:
                out[key] = exc
            else:
                out[key] = (was_present, None)
                total = total + cost
        return out, total

    def batch_delete(
        self, keys: Iterable[int]
    ) -> Tuple[Dict[int, Union[bool, Exception]], OpCost]:
        """Delete many keys; per-key outcome is ``removed`` or a typed
        exception."""
        out: Dict[int, Union[bool, Exception]] = {}
        total = OpCost.zero()
        for key in dict.fromkeys(keys):
            try:
                found = self.lookup(key).found
                cost = self.delete(key) if found else OpCost.zero()
            except self.BATCH_KEY_ERRORS as exc:
                out[key] = exc
            else:
                out[key] = found
                total = total + cost
        return out, total

    def items(self):
        """Iterate ``(key, value)`` pairs.  Keys come from the audit scan;
        each value is fetched with a real (charged) lookup."""
        for key in self.stored_keys():  # type: ignore[attr-defined]
            yield key, self.lookup(key).value

    # -- recovery hooks ------------------------------------------------------
    #
    # The self-healing layer (repro.recovery) asks a registered structure
    # two things: which block ranges it owns (so a rebuild or scrub knows
    # what to walk), and — where redundancy allows — how to reconstruct a
    # single lost block from surviving replicas.  Structures without
    # redundancy return extents only; their blocks survive transient
    # windows (storage is shared with the wrapper) but a permanently
    # failed disk loses them, which the loud-failure contract reports.

    def recovery_extents(self):
        """Owned block ranges as ``(disk, first_block, count)`` triples.
        Base dictionaries own no registered storage."""
        return []

    def reconstruct_block(self, addr):
        """Rebuild one lost block's ``(payload, used_bits)`` from
        redundancy, or ``None`` when this structure cannot (no replicas,
        or the block is outside its extents)."""
        return None

    def reconstruct_round_bound(self):
        """Upper bound on the read rounds one :meth:`reconstruct_block`
        may charge — the recovery monitor's per-block budget term."""
        return 1

    def _check_key(self, key: int) -> None:
        if not isinstance(key, int):
            raise TypeError(f"keys are integers, got {type(key).__name__}")
        if not 0 <= key < self.universe_size:
            raise KeyError(
                f"key {key} outside universe [0, {self.universe_size})"
            )
