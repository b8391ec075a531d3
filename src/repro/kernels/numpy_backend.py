"""Vectorized numpy backend for the batch kernels.

Same interface, same bit-exact results as :class:`~repro.kernels.base.
PythonKernel` — splitmix64 is pure mod-2^64 arithmetic, so numpy's
wrapping ``uint64`` ops reproduce it exactly; the property suite in
``tests/kernels`` asserts element-for-element equality against the
reference on every op.

Where vectorization cannot be exact the backend *falls back to the
reference loop* rather than approximate: polynomial hashing only
vectorizes when the modulus ``p`` fits 32 bits (so ``acc * x + a`` fits
``uint64`` without overflow past the modulus), and neighborhood maps only
when the mix inputs fit ``uint64`` (they always do for in-range keys —
the wrap is congruent mod 2^64 either way — but Python-int inputs
beyond 64 bits reject conversion, and those take the loop).
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.kernels.base import Addr, Kernel, PythonKernel

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_first = itemgetter(0)  # an item's key

#: Pad value for column-store rows.  Never equal to a stored or queried
#: key: the batch fast path requires keys ≤ 2**64 - 2 (the dictionary
#: gates on ``universe_size``).
_SENTINEL = _U64(0xFFFFFFFFFFFFFFFF)

_C_GAMMA = _U64(0x9E3779B97F4A7C15)
_C_MIX1 = _U64(0xBF58476D1CE4E5B9)
_C_MIX2 = _U64(0x94D049BB133111EB)
_C_DERIVE = _U64(0xA0761D6478BD642F)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)


def splitmix64_array(z: "np.ndarray") -> "np.ndarray":
    """:func:`repro.bits.mix.splitmix64` over a ``uint64`` array (wrapping
    uint64 arithmetic is exactly the scalar's mod-2^64 masking)."""
    z = z + _C_GAMMA
    z = (z ^ (z >> _S30)) * _C_MIX1
    z = (z ^ (z >> _S27)) * _C_MIX2
    return z ^ (z >> _S31)


class _MatrixColumnStore:
    """Sentinel-padded fixed-width key matrix; one row per stored bucket
    column, grown geometrically, rows write-once (and written whole, so
    rows not yet stored are never read and need no padding)."""

    __slots__ = ("width", "matrix", "rows")

    def __init__(self, width: int) -> None:
        self.width = max(width, 1)
        self.matrix = np.empty((256, self.width), dtype=np.uint64)
        self.rows = 0


class NumpyKernel(Kernel):
    """Flat-array kernels over ``numpy.uint64`` lanes."""

    name = "numpy"

    def __init__(self) -> None:
        self._ref = PythonKernel()

    def splitmix_fill(self, start: int, count: int) -> array:
        z = _U64(start & _MASK64) + np.arange(count, dtype=np.uint64)
        out = array("Q")
        out.frombytes(splitmix64_array(z).tobytes())
        return out

    def derive_pairs(self, seed: int, pairs: Sequence[Addr]) -> List[int]:
        n = len(pairs)
        if not n:
            return []
        from repro.bits.mix import splitmix64

        acc0 = _U64(splitmix64(seed & _MASK64))
        a = np.fromiter((p[0] for p in pairs), dtype=np.uint64, count=n)
        b = np.fromiter((p[1] for p in pairs), dtype=np.uint64, count=n)
        acc = splitmix64_array((acc0 ^ a) + _C_DERIVE)
        acc = splitmix64_array((acc ^ b) + _C_DERIVE)
        return acc.tolist()

    def _neighbor_mix(
        self, base: int, degree: int, keys: Sequence[int]
    ) -> "np.ndarray | None":
        """The flat ``splitmix64(base + x*degree + i)`` grid, or ``None``
        when the inputs do not fit the vector lanes (caller falls back)."""
        try:
            k = np.asarray(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None
        z = (
            k * _U64(degree)
        )[:, None] + np.arange(degree, dtype=np.uint64)[None, :]
        z = z + _U64(base & _MASK64)
        return splitmix64_array(z.ravel())

    def stripe_local_indices(
        self, base: int, degree: int, stripe_size: int, keys: Sequence[int]
    ) -> array:
        mixed = self._neighbor_mix(base, degree, keys)
        if mixed is None or stripe_size > 0xFFFFFFFF:
            return self._ref.stripe_local_indices(
                base, degree, stripe_size, keys
            )
        out = array("I")
        out.frombytes((mixed % _U64(stripe_size)).astype(np.uint32).tobytes())
        return out

    def flat_neighbors(
        self, base: int, degree: int, right_size: int, keys: Sequence[int]
    ) -> array:
        mixed = self._neighbor_mix(base, degree, keys)
        if mixed is None:
            return self._ref.flat_neighbors(base, degree, right_size, keys)
        out = array("Q")
        out.frombytes((mixed % _U64(right_size)).tobytes())
        return out

    def poly_hash(
        self, coeffs: Sequence[int], p: int, range_size: int,
        keys: Sequence[int],
    ) -> List[int]:
        # Exactness bound: with p < 2^32 every Horner step's acc*x + a
        # (both operands already reduced mod p) stays below 2^64.
        if p > 0xFFFFFFFF:
            return self._ref.poly_hash(coeffs, p, range_size, keys)
        try:
            x = np.asarray(keys, dtype=np.uint64) % _U64(p)
        except (OverflowError, TypeError, ValueError):
            return self._ref.poly_hash(coeffs, p, range_size, keys)
        acc = np.zeros(len(x), dtype=np.uint64)
        pp = _U64(p)
        for a in reversed(coeffs):
            acc = (acc * x + _U64(a)) % pp
        return (acc % _U64(range_size)).tolist()

    def plan_unique_probe(
        self,
        locals_flat: Sequence[int],
        stripes: int,
        bases: Sequence[int],
        disk_offset: int,
    ) -> Tuple[List[Addr], int, Any]:
        n = len(locals_flat)
        if not n:
            return [], 0, np.empty(0, dtype=np.int64)
        if isinstance(locals_flat, array):
            loc = np.frombuffer(locals_flat, dtype=np.uint32).astype(
                np.uint64
            )
        else:
            loc = np.asarray(locals_flat, dtype=np.uint64)
        stripe = np.tile(np.arange(stripes, dtype=np.uint64), n // stripes)
        blocks = np.asarray(bases, dtype=np.uint64)[stripe] + loc
        if int(blocks.max()) > 0xFFFFFFFF:  # packed-addr lanes overflow
            return self._ref.plan_unique_probe(
                locals_flat, stripes, bases, disk_offset
            )
        packed = ((stripe + _U64(disk_offset)) << _U64(32)) | blocks
        uniq, first, inv_sorted = np.unique(
            packed, return_index=True, return_inverse=True
        )
        # Remap np.unique's value-sorted indices onto first-appearance
        # order (== the scalar path's dict.fromkeys dedup order).
        s = np.argsort(first)
        rank = np.empty(len(s), dtype=np.int64)
        rank[s] = np.arange(len(s), dtype=np.int64)
        inverse = rank[inv_sorted.ravel()]
        sel = packed[first[s]]
        disks = (sel >> _U64(32)).tolist()
        blks = (sel & _U64(0xFFFFFFFF)).tolist()
        max_per_disk = int(
            np.bincount((uniq >> _U64(32)).astype(np.int64)).max()
        )
        return list(zip(disks, blks)), max_per_disk, inverse

    def new_column_store(self, width: int) -> Any:
        return _MatrixColumnStore(width)

    def store_column(self, store: Any, payload: Any) -> int:
        return self.store_columns(store, [payload])[0]

    def store_columns(self, store: Any, payloads: Sequence[Any]) -> range:
        start = store.rows
        end = start + len(payloads)
        matrix = store.matrix
        if end > matrix.shape[0]:
            size = matrix.shape[0]
            while size < end:
                size *= 2
            grown = np.empty((size, store.width), dtype=np.uint64)
            grown[:start] = matrix[:start]
            store.matrix = matrix = grown
        payloads = [p or () for p in payloads]
        lens = np.fromiter(map(len, payloads), dtype=np.int64, count=end - start)
        rows = np.full((end - start, store.width), _SENTINEL, dtype=np.uint64)
        total = int(lens.sum())
        if total:
            # Row-major boolean fill: row i takes its lens[i] keys, left
            # aligned, the rest of the row keeps the sentinel pad.
            rows[np.arange(store.width)[None, :] < lens[:, None]] = np.fromiter(
                map(_first, chain.from_iterable(payloads)),
                dtype=np.uint64, count=total,
            )
        matrix[start:end] = rows
        store.rows = end
        return range(start, end)

    def match_candidates(
        self,
        store: Any,
        rows: Sequence[int],
        inverse: Any,
        queries: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        nq = len(queries)
        if not nq or not len(inverse):
            return []
        if isinstance(inverse, np.ndarray):
            inv = inverse
        else:  # a reference-backend plan (packed-addr fallback)
            inv = np.fromiter(inverse, dtype=np.int64, count=len(inverse))
        degree = len(inv) // nq
        row_arr = np.fromiter(rows, dtype=np.int64, count=len(rows))
        q = np.fromiter(queries, dtype=np.uint64, count=nq)
        # One fixed-shape compare of every query against the padded key
        # rows of its own candidate buckets — (nq*degree, width) lanes,
        # no membership scan over the full fetched item set.
        cand = store.matrix[row_arr[inv]]
        eq = cand == np.repeat(q, degree)[:, None]
        pos, slot = np.nonzero(eq)
        if not pos.size:
            return []
        return list(
            zip((pos // degree).tolist(), inv[pos].tolist(), slot.tolist())
        )

    def failed_checksums(self, blocks: Sequence[Any]) -> List[int]:
        # Checksums fingerprint arbitrary Python payloads; the batch win is
        # the single pass, not numeric lanes.
        return self._ref.failed_checksums(blocks)


__all__ = ["NumpyKernel", "splitmix64_array"]
