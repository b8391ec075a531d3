"""Hierarchical operation spans over the I/O accountant.

A *span* is a named, attributed window of execution on one machine; spans
nest, forming a tree per top-level operation ("lookup" containing
"membership-probe" containing the raw probe).  Each span's ``cost`` is the
raw :class:`~repro.pdm.iostats.IOStats` delta of the machine over the
window — exactly what :func:`repro.pdm.iostats.measure` reports — so the
root of a span tree always equals the legacy ``measure()`` total.

Composition is explicit: a span opened with ``parallel=True`` declares
that its direct children execute simultaneously on disjoint disk groups
(the Theorem 6(a)/Theorem 7 pattern), so its *effective* cost combines the
children with :meth:`OpCost.parallel` instead of ``+``.
:attr:`Span.effective_cost` evaluates the whole tree under these rules —
this is the quantity the paper's theorems bound, and the quantity the
``repro.obs`` bound monitors check.

Like :class:`repro.pdm.trace.TraceRecorder`, recording is off unless a
:class:`SpanRecorder` is attached to the machine; the hot path pays one
``None`` check (structures open spans unconditionally, but an unrecorded
span is just a snapshot/delta pair, the same work ``measure`` does).

Spans carry no wall time: :mod:`repro.obs.layers` measures real time
from outside, so :attr:`Span.cost` and :meth:`Span.to_dict` are the same
whether or not a run is timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.pdm.iostats import OpCost


@dataclass(slots=True)
class Span:
    """One node of a span tree."""

    index: int
    name: str
    mode: str = "seq"  # "seq" | "parallel" — how direct children compose
    attrs: Dict[str, Any] = field(default_factory=dict)
    cost: OpCost = field(default_factory=OpCost)
    children: List["Span"] = field(default_factory=list)

    @property
    def total_ios(self) -> int:
        return self.cost.total_ios

    @property
    def effective_cost(self) -> OpCost:
        """Cost under the declared sequential/parallel composition.

        Children contribute their own effective costs, combined with ``+``
        (``mode="seq"``) or :meth:`OpCost.parallel` (``mode="parallel"``);
        I/O the span performed *outside* any child (the residual) is always
        sequential.  A leaf's effective cost is its raw cost.
        """
        if not self.children:
            return self.cost
        child_raw = OpCost.zero()
        for c in self.children:
            child_raw = child_raw + c.cost
        residual = self.cost - child_raw
        if self.mode == "parallel":
            combined = OpCost.parallel(*(c.effective_cost for c in self.children))
        else:
            combined = OpCost.zero()
            for c in self.children:
                combined = combined + c.effective_cost
        return combined + residual

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree (deterministic)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this subtree."""
        eff = self.effective_cost
        return {
            "index": self.index,
            "name": self.name,
            "mode": self.mode,
            "attrs": dict(self.attrs),
            "cost": {
                "read_ios": self.cost.read_ios,
                "write_ios": self.cost.write_ios,
                "blocks_read": self.cost.blocks_read,
                "blocks_written": self.cost.blocks_written,
                "retry_ios": self.cost.retry_ios,
                "repair_ios": self.cost.repair_ios,
            },
            "effective": {
                "read_ios": eff.read_ios,
                "write_ios": eff.write_ios,
                "blocks_read": eff.blocks_read,
                "blocks_written": eff.blocks_written,
                "retry_ios": eff.retry_ios,
                "repair_ios": eff.repair_ios,
            },
            "children": [c.to_dict() for c in self.children],
        }


@dataclass(slots=True)
class SpanHandle:
    """Yielded by :func:`span`; carries the measured cost (always) and the
    recorded tree node (only when a recorder is attached)."""

    cost: OpCost = field(default_factory=OpCost)
    span: Optional[Span] = None

    @property
    def total_ios(self) -> int:
        return self.cost.total_ios

    @property
    def read_ios(self) -> int:
        return self.cost.read_ios

    @property
    def write_ios(self) -> int:
        return self.cost.write_ios

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-operation (hit/miss, levels,
        loads).  No-op when unrecorded."""
        if self.span is not None:
            self.span.attrs.update(attrs)


class SpanRecorder:
    """Collects span trees from an attached machine.

    Maintains an open-span stack; completed top-level spans accumulate in
    :attr:`roots` in execution order.  All ordering is insertion order —
    no wall clock anywhere (``index`` is the deterministic logical time).
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []  # detlint: guarded(machine-op) -- spans strictly nest within one machine operation
        self._next_index = 0

    def enter(self, name: str, mode: str, attrs: Dict[str, Any]) -> Span:
        node = Span(index=self._next_index, name=name, mode=mode, attrs=attrs)
        self._next_index += 1
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return node

    def exit(self, node: Span, cost: OpCost) -> None:
        if not self._stack or self._stack[-1] is not node:
            raise RuntimeError(
                f"unbalanced span exit for {node.name!r}; spans must strictly nest"
            )
        self._stack.pop()
        node.cost = cost

    @property
    def depth(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a recorder with open spans")
        self.roots.clear()
        self._next_index = 0

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, pre-order across roots."""
        for root in self.roots:
            yield from root.walk()

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Aggregate per span name: count, raw and effective round/block
        sums.  Keys appear in first-execution order."""
        out: Dict[str, Dict[str, int]] = {}
        for s in self.iter_spans():
            agg = out.setdefault(
                s.name,
                {
                    "count": 0,
                    "read_ios": 0,
                    "write_ios": 0,
                    "total_ios": 0,
                    "blocks_read": 0,
                    "blocks_written": 0,
                    "effective_ios": 0,
                    "retry_ios": 0,
                    "repair_ios": 0,
                },
            )
            agg["count"] += 1
            agg["read_ios"] += s.cost.read_ios
            agg["write_ios"] += s.cost.write_ios
            agg["total_ios"] += s.cost.total_ios
            agg["blocks_read"] += s.cost.blocks_read
            agg["blocks_written"] += s.cost.blocks_written
            agg["effective_ios"] += s.effective_cost.total_ios
            agg["retry_ios"] += s.cost.retry_ios
            agg["repair_ios"] += s.cost.repair_ios
        return out


class span:
    """Measure the I/O cost of the block as a (possibly nested) span.

    Subsumes :func:`repro.pdm.iostats.measure` for the single-machine case:
    the yielded handle exposes ``.cost`` / ``.total_ios`` the same way, and
    additionally builds a node in the machine's attached
    :class:`SpanRecorder` (if any).  ``parallel=True`` marks the *direct
    children* of this span as executing on disjoint disk groups.

    A class-based context manager (not ``@contextmanager``): structures
    open a span on *every* operation, recorded or not, so the enter/exit
    pair is hot — this shape skips the generator machinery and the
    intermediate :meth:`IOStats.snapshot` allocation.

    >>> with span(machine, "lookup", op="lookup") as h:
    ...     machine.read_blocks(addrs)
    >>> h.total_ios
    1
    """

    __slots__ = ("_machine", "_name", "_parallel", "_attrs",
                 "_snap", "_cache_snap", "_handle", "_node", "_recorder")

    def __init__(
        self, machine, name: str, *, parallel: bool = False, **attrs: Any
    ) -> None:
        self._machine = machine
        self._name = name
        self._parallel = parallel
        self._attrs = attrs

    def __enter__(self) -> SpanHandle:
        machine = self._machine
        recorder: Optional[SpanRecorder] = machine.spans
        self._recorder = recorder
        stats = machine.stats
        self._snap = (
            stats.read_ios, stats.write_ios,
            stats.blocks_read, stats.blocks_written,
            stats.retry_ios, stats.repair_ios,
        )
        handle = SpanHandle()
        self._handle = handle
        if recorder is not None:
            node = recorder.enter(
                self._name, "parallel" if self._parallel else "seq",
                self._attrs,
            )
            handle.span = node
            self._node = node
            cache = machine.cache
            if cache is not None:
                cs = cache.stats
                self._cache_snap = (cs.hits, cs.misses, cs.evictions)
            else:
                self._cache_snap = None
        else:
            self._node = None
            self._cache_snap = None
        return handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        stats = self._machine.stats
        snap = self._snap
        handle = self._handle
        handle.cost = OpCost(
            read_ios=stats.read_ios - snap[0],
            write_ios=stats.write_ios - snap[1],
            blocks_read=stats.blocks_read - snap[2],
            blocks_written=stats.blocks_written - snap[3],
            retry_ios=stats.retry_ios - snap[4],
            repair_ios=stats.repair_ios - snap[5],
        )
        node = self._node
        if node is not None:
            csnap = self._cache_snap
            cache = self._machine.cache
            if csnap is not None and cache is not None:
                cs = cache.stats
                node.attrs["cache.hits"] = cs.hits - csnap[0]
                node.attrs["cache.misses"] = cs.misses - csnap[1]
                node.attrs["cache.evictions"] = cs.evictions - csnap[2]
            self._recorder.exit(node, handle.cost)
        return False


def attach_spans(machine) -> SpanRecorder:
    """Attach a fresh :class:`SpanRecorder` to ``machine`` (replacing any
    existing one) and return it."""
    recorder = SpanRecorder()
    machine.spans = recorder
    return recorder


def detach_spans(machine) -> None:
    machine.spans = None
