"""A deterministic random-value stream on top of :mod:`repro.bits.mix`.

``random.Random`` and ``numpy.random`` are seedable, but their streams are
implementation details of their libraries — a CPython or numpy upgrade may
silently reshuffle every "reproducible" workload built on them, and the two
produce different streams for the same seed, so code mixing both (as the
access generators once did) cannot be audited for determinism at all.
:class:`MixStream` is the repository's sanctioned source of *sequences* of
random-looking values: a counter-mode splitmix64 generator whose output is
a pure function of ``(seed, counter)``, pinned by this repository's own
code and snapshot tests rather than by a third-party library's internals.

The API mirrors the small subset of ``random.Random`` the workload layer
needs (``randrange`` / ``random`` / ``choice`` / ``shuffle``) plus
:meth:`weighted` for skewed (Zipf) draws.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, TypeVar

from repro.bits.mix import derive, splitmix64

_MASK64 = (1 << 64) - 1
_T = TypeVar("_T")


class MixStream:
    """Counter-mode splitmix64 stream: value ``i`` is
    ``splitmix64(state + i)`` for a ``derive``-mixed starting state.

    Instances are cheap, independent streams: ``MixStream(seed, tag)`` and
    ``MixStream(seed, other_tag)`` never correlate (to splitmix64's
    quality), which lets each generator in :mod:`repro.workloads.access`
    own a domain-separated stream from one user seed.
    """

    __slots__ = ("_state", "_counter")

    def __init__(self, seed: int, *tags: int):
        self._state = derive(seed, *tags) if tags else derive(seed)
        self._counter = 0

    def next64(self) -> int:
        """The next 64-bit value of the stream."""
        value = splitmix64((self._state + self._counter) & _MASK64)
        self._counter += 1
        return value

    def fill(self, count: int) -> array:
        """The next ``count`` values as one flat ``array('Q')``.

        Bit-identical to ``count`` successive :meth:`next64` calls (and
        advances the counter the same way) — the batched counter-mode
        shape the vectorized kernels consume.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        state, start = self._state, self._counter
        mix = splitmix64
        out = array(
            "Q", (mix((state + start + i) & _MASK64) for i in range(count))
        )
        self._counter = start + count
        return out

    def randrange(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` (unbiased, via rejection)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # Reject the tail residue so every value is exactly equally likely;
        # for bound << 2^64 the loop essentially never iterates.
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            value = self.next64()
            if value <= limit:
                return value % bound

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next64() >> 11) * (2.0 ** -53)

    def choice(self, seq: Sequence[_T]) -> _T:
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: List[_T]) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def weighted(self, cumulative: Sequence[float]) -> int:
        """An index drawn per a *cumulative* weight table.

        ``cumulative`` must be nondecreasing with a positive final entry
        (the normalization constant); returns ``i`` with probability
        ``(cumulative[i] - cumulative[i-1]) / cumulative[-1]``.  Bisection
        keeps skewed draws O(log n) per sample.
        """
        if not cumulative or cumulative[-1] <= 0:
            raise ValueError("cumulative weights must end positive")
        target = self.random() * cumulative[-1]
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] <= target:
                lo = mid + 1
            else:
                hi = mid
        return lo


__all__ = ["MixStream"]
