"""Optional I/O tracing.

A :class:`TraceRecorder` attached to a machine logs every read/write batch
(addresses, rounds charged, direction).  Used by the concurrency analysis
(write-footprint disjointness — Section 1.1's "simplifies concurrency
control mechanisms such as locking") and available for debugging I/O
schedules.

Tracing is off unless a recorder is attached; the hot path pays one `None`
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, KeysView, List, Tuple

Addr = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One batched I/O."""

    kind: str  # "read" | "write"
    addrs: Tuple[Addr, ...]
    rounds: int


@dataclass(slots=True)
class TraceRecorder:
    """Collects :class:`TraceEvent` objects from an attached machine.

    Events carry logical rounds only; wall time is measured from outside
    by :mod:`repro.obs.layers`.
    """

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, kind: str, addrs, rounds: int) -> None:
        self.events.append(TraceEvent(kind, tuple(addrs), rounds))

    def clear(self) -> None:
        self.events.clear()

    # -- analyses -------------------------------------------------------------

    def blocks_touched(self, kind: str | None = None) -> KeysView[Addr]:
        """Distinct blocks touched, in *first-touch order*.

        The result is a dict keys view: set-like for membership and
        intersection tests (the concurrency analysis), but insertion-ordered
        — exporting or diffing footprints is stable run to run, unlike the
        hash-ordered ``set`` this used to return.
        """
        out: Dict[Addr, None] = {}
        for ev in self.events:
            if kind is None or ev.kind == kind:
                for addr in ev.addrs:
                    out[addr] = None
        return out.keys()

    def write_footprint(self) -> KeysView[Addr]:
        """All blocks written during the trace — the lock set a pessimistic
        concurrency-control scheme would need for the traced operation."""
        return self.blocks_touched("write")

    def read_footprint(self) -> KeysView[Addr]:
        return self.blocks_touched("read")

    @property
    def rounds(self) -> int:
        return sum(ev.rounds for ev in self.events)


def attach(machine) -> TraceRecorder:
    """Attach a fresh recorder to ``machine`` (replacing any existing one)
    and return it."""
    recorder = TraceRecorder()
    machine.tracer = recorder
    return recorder


def detach(machine) -> None:
    machine.tracer = None
