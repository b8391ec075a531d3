"""Per-dictionary neighborhood memoization, charged to internal memory.

Every dictionary operation begins by evaluating ``Γ(key)`` — ``degree``
splitmix64 mixes per key on the seeded expanders.  The paper's model makes
this free ("access to certain expander graphs for free"), and the PDM
grants ``M`` words of internal memory; :class:`NeighborhoodMemo` spends
some of that memory to make repeated evaluations *actually* free at the
wall clock: each evaluated key's ``(stripe, index)`` tuple is kept in one
dict, charged ``degree + 1`` words (the ``degree`` indices plus the key)
against the machine's :class:`~repro.pdm.memory.InternalMemory`, and the
hot path returns the memoized tuple without re-mixing.

A memo is the only cache of a striped graph's ``Γ``: the graphs
themselves keep none, so every word a dictionary spends on neighborhoods
shows in the machine's internal-memory peak.

Honesty rules:

* the charge is per *memoized key*, taken when the key is first seen and
  released when the memo resets — the memo never uses memory the model
  did not grant;
* when a charge would exceed ``M`` the memo freezes (stops memoizing)
  instead of raising: memoization is an optimisation, never a
  correctness requirement, so the dictionary keeps working at the
  uncached speed;
* at ``max_keys`` the memo resets wholesale (deterministically — no
  clocks, no randomness).
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence, Tuple

from repro.expanders.base import StripedExpander
from repro.pdm import InternalMemory, InternalMemoryExceeded

#: default memo bound when internal memory is unbounded
DEFAULT_MAX_KEYS = 1 << 16

Neighborhood = Tuple[Tuple[int, int], ...]


class NeighborhoodMemo:
    """Memoized ``striped_neighbors`` for one dictionary's expander."""

    __slots__ = (
        "graph",
        "degree",
        "memory",
        "max_keys",
        "words_per_key",
        "resets",
        "_tuples",
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
        self.resets = 0
        #: key -> the exact tuple the expander returned
        self._tuples: Dict[int, Neighborhood] = {}  # detlint: guarded(owner-lane) -- memo + memory charge must stay single-writer; see docs/static_analysis.md
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

    def striped(self, key: int) -> Neighborhood:
        """``graph.striped_neighbors(key)``, memoized."""
        t = self._tuples.get(key)
        if t is None:
            t = self.graph.striped_neighbors(key)
            if not self._frozen:
                self._record(key, t)
        return t

    # -- batch evaluation --------------------------------------------------
    #
    # One graph evaluation covers the whole batch; then every key the memo
    # does not hold is recorded in key order, so charges, resets and
    # freezes follow exactly the sequence of per-key striped() calls.

    def batch_striped(
        self, keys: Sequence[int], kernel=None
    ) -> Dict[int, Neighborhood]:
        """:meth:`striped` for many keys: ``{key: striped(key)}``."""
        out = self.graph.batch_striped(keys, kernel=kernel)
        tuples = self._tuples
        for key in keys:
            if self._frozen:
                break
            if key not in tuples:
                self._record(key, out[key])
        return out

    def batch_local_indices(self, keys: Sequence[int], kernel=None) -> array:
        """The local bucket indices of many keys as one flat ``array('I')``
        (``degree`` entries per key, key-major), memoizing as
        :meth:`batch_striped` does."""
        flat = self.graph.batch_local_indices(keys, kernel=kernel)
        d = self.degree
        tuples = self._tuples
        for pos, key in enumerate(keys):
            if self._frozen:
                break
            if key not in tuples:
                self._record(key, tuple(enumerate(flat[pos * d : pos * d + d])))
        return flat

    def _record(self, key: int, t: Neighborhood) -> None:
        """Memoize ``t`` for a key the (unfrozen) memo does not hold."""
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
        self._tuples[key] = t

    def reset(self) -> None:
        """Deterministic wholesale reset; releases every charged word."""
        self._tuples.clear()
        if self.memory is not None and self._charged_words:
            self.memory.release(self._charged_words)
        self._charged_words = 0
        self.resets += 1
        self._frozen = self.max_keys == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NeighborhoodMemo({len(self._tuples)}/{self.max_keys} keys, "
            f"d={self.degree}, resets={self.resets})"
        )
