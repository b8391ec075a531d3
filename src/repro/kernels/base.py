"""The batch-kernel interface and its pure-Python reference backend.

A *kernel* evaluates the per-key arithmetic of the batch hot path —
expander neighborhoods, probe planning, key-column storage and batch key
matching — for a **whole batch at once** over flat arrays, instead of
one Python call per key.  Two hard rules make kernels safe to thread
through the charged stack:

* **Purity** — a kernel never touches storage, machines, caches or any
  other stateful object; it maps value arrays to value arrays.  The
  detlint flow rules (COST101/DET101) verify this stays true.
* **Scalar equivalence** — every op is bit-identical to the scalar
  code it replaces (``SeededRandomExpander``'s neighbor formula over
  :func:`repro.bits.mix.splitmix64`, the ``dict.fromkeys`` probe dedup,
  the per-bucket item scan).  The property suite in
  ``tests/kernels`` holds every backend to the reference element for
  element, so swapping backends can never change an answer, a charge or
  a fault.

:class:`PythonKernel` is the reference implementation: plain loops over
``array`` values, dependency-free, always available.  The optional
:mod:`~repro.kernels.numpy_backend` vectorizes the same interface.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Sequence, Tuple

from repro.bits.mix import splitmix64

Addr = Tuple[int, int]


class Kernel:
    """Abstract batch kernel.  All ops are pure functions of their inputs.

    ``stripe_local_indices`` always returns a flat ``array('I')`` with
    ``degree`` entries per key (the ``NeighborhoodMemo`` layout), whatever
    the backend computes with internally — downstream code sees one type.
    """

    name: str = "abstract"

    # -- expander neighborhoods -------------------------------------------

    def stripe_local_indices(
        self, base: int, degree: int, stripe_size: int, keys: Sequence[int]
    ) -> array:
        """``splitmix64(base + x*degree + i) % stripe_size`` for every key
        ``x`` and stripe ``i`` — ``SeededRandomExpander``'s neighbor map,
        flattened key-major into ``array('I')``."""
        raise NotImplementedError

    # -- probe planning ----------------------------------------------------

    def plan_unique_probe(
        self,
        locals_flat: Sequence[int],
        stripes: int,
        bases: Sequence[int],
        disk_offset: int,
    ) -> Tuple[List[Addr], int, Any]:
        """Deduplicated single-block bucket addresses for a batch probe.

        ``locals_flat`` holds ``stripes`` local bucket indices per key
        (the ``NeighborhoodMemo`` flat layout); position ``k*stripes + i``
        maps to block ``(disk_offset + i, bases[i] + local)``.  Returns
        ``(unique_addrs, max_per_disk, inverse)`` where ``unique_addrs``
        keeps first-appearance order (identical across backends — it
        equals the scalar path's ``dict.fromkeys`` dedup order),
        ``max_per_disk`` is the PDM round charge of the unique set
        (:meth:`ParallelDiskMachine._batch_rounds`), and ``inverse`` maps
        every flat position back to its index in ``unique_addrs``.
        ``inverse`` is backend-shaped (list or ndarray); treat it as
        opaque and hand it to :meth:`match_candidates`, whose element
        values are nonetheless identical across backends.
        """
        raise NotImplementedError

    # -- batch key matching ------------------------------------------------

    def new_column_store(self, width: int) -> Any:
        """An empty backend-shaped column store for buckets holding up to
        ``width`` items.  A store is a caller-owned value: the kernel
        writes rows into it on request (:meth:`store_column`) and reads
        them back (:meth:`match_candidates`) but keeps no reference —
        kernels stay stateless."""
        raise NotImplementedError

    def store_column(self, store: Any, payload: Any) -> int:
        """Append the key column of one bucket payload (a list of
        ``(key, t, fragment)`` items, possibly ``None``) to ``store``;
        returns the row handle.  Rows are immutable once written — cache
        the handle for as long as the payload is unchanged."""
        raise NotImplementedError

    def store_columns(self, store: Any, payloads: Sequence[Any]) -> range:
        """:meth:`store_column` for a whole batch of bucket payloads in one
        call; returns their row handles, which are consecutive."""
        raise NotImplementedError

    def match_candidates(
        self,
        store: Any,
        rows: Sequence[int],
        inverse: Any,
        queries: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        """Occurrences of each query key across its own candidate columns.

        ``rows[u]`` is the store row of the ``u``-th unique bucket of a
        probe plan and ``inverse`` is that plan's flat map (so query
        ``qi``'s candidates are ``inverse[qi*degree : (qi+1)*degree]``;
        ``degree`` is inferred as ``len(inverse) // len(queries)``).
        Returns ``(query_index, unique_index, slot)`` triples ordered by
        flat position then slot.  ``queries`` must be distinct, and one
        query's ``degree`` candidate columns must be distinct (the striped
        layout guarantees both).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class _PyColumnStore:
    """The reference column store: the payload tuples themselves, row =
    list index.  ``width`` is kept only for parity with fixed-width
    backends (it bounds every payload by construction)."""

    __slots__ = ("width", "payloads")

    def __init__(self, width: int) -> None:
        self.width = width
        self.payloads: List[Any] = []


class PythonKernel(Kernel):
    """The dependency-free reference backend: plain loops, exact scalar
    semantics by construction (it calls the very same helpers)."""

    name = "python"

    def stripe_local_indices(
        self, base: int, degree: int, stripe_size: int, keys: Sequence[int]
    ) -> array:
        mix = splitmix64
        out = array("I")
        for x in keys:
            b = base + x * degree
            out.extend(mix(b + i) % stripe_size for i in range(degree))
        return out

    def plan_unique_probe(
        self,
        locals_flat: Sequence[int],
        stripes: int,
        bases: Sequence[int],
        disk_offset: int,
    ) -> Tuple[List[Addr], int, Any]:
        unique: List[Addr] = []
        seen: dict = {}
        per_disk: dict = {}
        inverse: List[int] = []
        i = 0
        n = len(locals_flat)
        while i < n:
            for s in range(stripes):
                local = locals_flat[i]
                i += 1
                addr = (disk_offset + s, bases[s] + local)
                idx = seen.get(addr)
                if idx is None:
                    idx = len(unique)
                    seen[addr] = idx
                    unique.append(addr)
                    disk = addr[0]
                    per_disk[disk] = per_disk.get(disk, 0) + 1
                inverse.append(idx)
        return unique, max(per_disk.values(), default=0), inverse

    def new_column_store(self, width: int) -> Any:
        return _PyColumnStore(width)

    def store_column(self, store: Any, payload: Any) -> int:
        return self.store_columns(store, [payload])[0]

    def store_columns(self, store: Any, payloads: Sequence[Any]) -> range:
        rows = store.payloads
        start = len(rows)
        rows.extend(p if p else () for p in payloads)
        return range(start, len(rows))

    def match_candidates(
        self,
        store: Any,
        rows: Sequence[int],
        inverse: Any,
        queries: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        payloads = store.payloads
        nq = len(queries)
        degree = len(inverse) // nq if nq else 0
        out = []
        p = 0
        for qi in range(nq):
            key = queries[qi]
            for _ in range(degree):
                ci = inverse[p]
                p += 1
                for slot, item in enumerate(payloads[rows[ci]]):
                    if item[0] == key:
                        out.append((qi, ci, slot))
        return out



__all__ = ["Addr", "Kernel", "PythonKernel"]
