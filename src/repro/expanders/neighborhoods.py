"""Per-dictionary neighborhood memoization, charged to internal memory.

Every dictionary operation begins by evaluating ``Γ(key)`` — ``degree``
splitmix64 mixes per key on the seeded expanders.  The paper's model makes
this free ("access to certain expander graphs for free"), and the PDM
grants ``M`` words of internal memory; :class:`NeighborhoodMemo` spends
some of that memory to make repeated evaluations *actually* free at the
wall clock: the local bucket indices of each evaluated key land in a flat
``array('I')`` (``degree`` unsigned ints per key, plus the key's offset —
``degree + 1`` words, charged against the machine's
:class:`~repro.pdm.memory.InternalMemory`), and the hot path returns the
memoized ``(stripe, index)`` tuple without re-mixing.

Honesty rules:

* the charge is per *memoized key*, taken when the key is first seen and
  released when the memo resets — the memo never uses memory the model
  did not grant;
* when a charge would exceed ``M`` the memo freezes (stops memoizing)
  instead of raising: memoization is an optimisation, never a
  correctness requirement, so the dictionary keeps working at the
  uncached speed;
* at ``max_keys`` the memo resets wholesale (deterministically — no
  clocks, no randomness), matching the seeded expanders' own overflow
  policy.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.expanders.base import StripedExpander
from repro.pdm import InternalMemory, InternalMemoryExceeded

#: default memo bound when internal memory is unbounded (matches the
#: seeded expanders' own neighbor-cache bound)
DEFAULT_MAX_KEYS = 1 << 16


class NeighborhoodMemo:
    """Memoized ``striped_neighbors`` for one dictionary's expander."""

    __slots__ = (
        "graph",
        "degree",
        "memory",
        "max_keys",
        "words_per_key",
        "hits",
        "misses",
        "resets",
        "_tuples",
        "_offsets",
        "_flat",
        "_charged_words",
        "_frozen",
    )

    def __init__(
        self,
        graph: StripedExpander,
        *,
        memory: Optional[InternalMemory] = None,
        max_keys: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.degree = graph.degree
        self.memory = memory
        self.words_per_key = self.degree + 1
        if max_keys is None:
            max_keys = DEFAULT_MAX_KEYS
            if memory is not None and memory.capacity_words is not None:
                free = memory.capacity_words - memory.used_words
                max_keys = min(max_keys, free // self.words_per_key)
        self.max_keys = max(0, max_keys)
        self.hits = 0
        self.misses = 0
        self.resets = 0
        #: key -> the exact tuple the expander returned (hot-path store)
        self._tuples: Dict[int, Tuple[Tuple[int, int], ...]] = {}  # detlint: guarded(owner-lane) -- memo + memory charge must stay single-writer; see docs/static_analysis.md
        #: key -> offset of its ``degree`` local indices in ``_flat``
        self._offsets: Dict[int, int] = {}  # detlint: guarded(owner-lane) -- indexes _flat; consistent only under the same single writer
        #: flat local-index store — ``degree`` entries per memoized key, in
        #: memoization order; the array-shaped view batch planners consume
        self._flat = array("I")  # detlint: guarded(owner-lane) -- append-only under the owner; readers see a prefix
        self._charged_words = 0
        self._frozen = self.max_keys == 0

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def charged_words(self) -> int:
        return self._charged_words

    @property
    def frozen(self) -> bool:
        """True when internal memory is exhausted and memoization stopped."""
        return self._frozen

    def striped(self, key: int) -> Tuple[Tuple[int, int], ...]:
        """``graph.striped_neighbors(key)``, memoized."""
        t = self._tuples.get(key)
        if t is not None:
            self.hits += 1
            return t
        self.misses += 1
        t = self.graph.striped_neighbors(key)
        self._memoize(key, t, (j for _, j in t))
        return t

    def local_indices(self, key: int) -> array:
        """The ``degree`` local (per-stripe) bucket indices of ``key`` as a
        flat ``array('I')`` slice — computed and memoized on demand."""
        off = self._offsets.get(key)
        if off is None:
            self.striped(key)
            off = self._offsets.get(key)
            if off is None:  # frozen memo: build the array transiently
                return array(
                    "I", (j for _, j in self.graph.striped_neighbors(key))
                )
        return self._flat[off : off + self.degree]

    # -- batch evaluation --------------------------------------------------
    #
    # The batch forms are *replays* of the scalar loop against live memo
    # state: misses are pre-evaluated in one (kernel-accelerated) graph
    # call, but hits, counters, memory charges, freezes and the wholesale
    # reset all happen key by key exactly as a sequence of scalar calls
    # would.  A reset mid-batch can turn a pre-classified hit into a miss;
    # the replay honors that (the rare re-miss falls back to one scalar
    # graph evaluation), so memo state after a batch is indistinguishable
    # from the sequential path.

    def batch_striped(
        self, keys: Sequence[int], kernel=None
    ) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """:meth:`striped` for many keys — ``{key: striped(key)}`` with
        one batched graph evaluation for the misses."""
        tuples = self._tuples
        missing = [x for x in keys if x not in tuples]
        evaluated = (
            self.graph.batch_striped(missing, kernel=kernel)
            if missing
            else {}
        )
        out: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        for key in keys:
            t = tuples.get(key)
            if t is not None:
                self.hits += 1
                out[key] = t
                continue
            self.misses += 1
            t = evaluated.get(key)
            if t is None:  # re-miss after a mid-batch reset
                t = self.graph.striped_neighbors(key)
            self._memoize(key, t, (j for _, j in t))
            out[key] = t
        return out

    def batch_local_indices(self, keys: Sequence[int], kernel=None) -> array:
        """The local bucket indices of many keys as one flat ``array('I')``
        (``degree`` entries per key, key-major — the :attr:`_flat` layout).

        Counter/charge/freeze parity with sequential :meth:`striped` calls;
        frozen memos compute transient chunks without memoizing."""
        d = self.degree
        offsets = self._offsets
        missing = [x for x in keys if x not in offsets]
        if missing:
            flat_missing = self.graph.batch_local_indices(
                missing, kernel=kernel
            )
            mpos = {x: i for i, x in enumerate(missing)}
        else:
            flat_missing = None
            mpos = {}
        out = array("I")
        flat = self._flat
        for key in keys:
            off = offsets.get(key)
            if off is not None:
                self.hits += 1
                out.extend(flat[off : off + d])
                continue
            self.misses += 1
            i = mpos.get(key)
            if i is None:  # re-miss after a mid-batch reset
                chunk = array(
                    "I", (j for _, j in self.graph.striped_neighbors(key))
                )
            else:
                chunk = flat_missing[i * d : (i + 1) * d]
            out.extend(chunk)
            self._memoize(key, tuple(enumerate(chunk)), chunk)
        return out

    def precompute(self, keys: Iterable[int]) -> int:
        """Memoize a key set up front (bulk build / bench warm-up);
        returns how many keys are memoized afterwards."""
        for key in keys:
            self.striped(key)
        return len(self._tuples)

    def _memoize(
        self, key: int, t: Tuple[Tuple[int, int], ...], local: Iterable[int]
    ) -> None:
        """Memoize ``t``; ``local`` is its flat local indices (the batch
        path passes its ``array('I')`` chunk for one C-level ``extend``)."""
        if self._frozen:
            return
        if len(self._tuples) >= self.max_keys:
            self.reset()
        if self.memory is not None:
            try:
                self.memory.charge(self.words_per_key)
            except InternalMemoryExceeded:
                # The model's M is spoken for elsewhere (buffer pool,
                # hash descriptions): stop memoizing, stay correct.
                self._frozen = True
                return
            self._charged_words += self.words_per_key
        self._offsets[key] = len(self._flat)
        self._flat.extend(local)
        self._tuples[key] = t

    def reset(self) -> None:
        """Deterministic wholesale reset; releases every charged word."""
        self._tuples.clear()
        self._offsets.clear()
        del self._flat[:]
        if self.memory is not None and self._charged_words:
            self.memory.release(self._charged_words)
        self._charged_words = 0
        self.resets += 1
        self._frozen = self.max_keys == 0

    def stats(self) -> Dict[str, int]:
        return {
            "keys": len(self._tuples),
            "hits": self.hits,
            "misses": self.misses,
            "resets": self.resets,
            "charged_words": self._charged_words,
            "frozen": int(self._frozen),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NeighborhoodMemo({len(self._tuples)}/{self.max_keys} keys, "
            f"d={self.degree}, hits={self.hits}, misses={self.misses})"
        )
