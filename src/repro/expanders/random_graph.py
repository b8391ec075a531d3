"""Seeded pseudo-random striped expanders.

The paper's algorithms assume "access to certain expander graphs for free":
random left-regular graphs achieve the optimal parameters with high
probability — including *striped* random graphs (Section 2) — but no optimal
explicit construction is known.  Our stand-in is a graph whose neighbor
function is a strong deterministic 64-bit mix of ``(seed, x, stripe)``:

* once the seed is fixed the graph is a fixed object, so every dictionary
  built on it runs fully deterministically, exactly as the paper prescribes
  for an arbitrary fixed good expander;
* the graph is striped by construction (one neighbor per stripe);
* its expansion can be certified after the fact with
  :mod:`repro.expanders.verify`, and parameters chosen with
  :mod:`repro.expanders.existence` make failure probabilities negligible.

The mix is splitmix64 (Steele et al.), a measurably well-distributed
permutation of the 64-bit integers; evaluation needs no I/O and ``O(1)``
words, satisfying the paper's explicitness requirement *operationally*
(the construction is of course not explicit in the complexity-theoretic
sense — that is precisely the gap Section 5 addresses).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bits.mix import splitmix64
from repro.expanders.base import Expander, StripedExpander

__all__ = ["SeededRandomExpander", "SeededFlatExpander", "splitmix64"]


class SeededRandomExpander(StripedExpander):
    """A striped left-``d``-regular graph with pseudo-random neighbors.

    ``F(x, i) = (i, splitmix64(seed' + x*d + i) mod stripe_size)`` where
    ``seed'`` itself is a mix of the user seed — distinct seeds give
    essentially independent graphs, which Section 4.3 needs (one expander
    per level, "all expander graphs have the same left set U, the same
    degree d" but independent edge sets).
    """

    def __init__(
        self,
        *,
        left_size: int,
        degree: int,
        stripe_size: int,
        seed: int = 0,
        cache_size: int = 1 << 16,
    ):
        if left_size <= 0:
            raise ValueError(f"universe size must be positive, got {left_size}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if stripe_size <= 0:
            raise ValueError(f"stripe size must be positive, got {stripe_size}")
        self.left_size = left_size
        self.degree = degree
        self.stripe_size = stripe_size
        self.right_size = degree * stripe_size
        self.seed = seed
        self._base = splitmix64(seed ^ 0xA5A5_A5A5_DEAD_BEEF)
        self._cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}  # detlint: guarded(owner-lane) -- idempotent memo of a seeded pure function
        self._cache_size = cache_size

    def striped_neighbors(self, x: int) -> Tuple[Tuple[int, int], ...]:
        self._check_left(x)
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        base = self._base + x * self.degree
        out = tuple(
            (i, splitmix64(base + i) % self.stripe_size)
            for i in range(self.degree)
        )
        if len(self._cache) >= self._cache_size:
            self._cache.clear()
        self._cache[x] = out
        return out

    def batch_local_indices(self, keys, kernel=None):
        """One kernel evaluation of the neighbor map for many keys.

        Bit-identical to the per-key form (same mix, same reduction); the
        graph's tuple cache is bypassed — the callers that batch
        (:class:`~repro.expanders.neighborhoods.NeighborhoodMemo`) hold
        their own memo above this level.
        """
        if kernel is None:
            return super().batch_local_indices(keys)
        for x in keys:
            self._check_left(x)
        return kernel.stripe_local_indices(
            self._base, self.degree, self.stripe_size, keys
        )

    def batch_striped(self, keys, kernel=None):
        """Batched :meth:`striped_neighbors`: cache hits are served as
        usual, misses are evaluated in one kernel call and cached with the
        same wholesale-clear overflow policy as the scalar path."""
        if kernel is None:
            return super().batch_striped(keys)
        out: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        missing = []
        cache = self._cache
        for x in keys:
            cached = cache.get(x)
            if cached is not None:
                out[x] = cached
            else:
                out[x] = ()  # placeholder keeps insertion order
                missing.append(x)
        if missing:
            flat = self.batch_local_indices(missing, kernel=kernel)
            d = self.degree
            limit = self._cache_size
            for pos, x in enumerate(missing):
                t = tuple(enumerate(flat[pos * d : (pos + 1) * d]))
                if len(cache) >= limit:
                    cache.clear()
                cache[x] = t
                out[x] = t
        return out

    def evaluation_memory_words(self) -> int:
        """Words of internal memory the neighbor function needs: O(1)."""
        return 2  # the seed and the derived base constant


class SeededFlatExpander(Expander):
    """A non-striped left-``d``-regular graph with pseudo-random neighbors.

    ``F(x, i) = splitmix64(seed' + x*d + i) mod v``.  Used as the stage
    graphs of the telescope product (Section 5), whose intermediate
    expanders are not striped — only the final composition is adapted to the
    PDM via :class:`~repro.expanders.striping.TriviallyStripedExpander` (or
    used directly in the parallel disk head model).
    """

    def __init__(
        self,
        *,
        left_size: int,
        degree: int,
        right_size: int,
        seed: int = 0,
        cache_size: int = 1 << 16,
    ):
        if left_size <= 0:
            raise ValueError(f"universe size must be positive, got {left_size}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if right_size <= 0:
            raise ValueError(f"right size must be positive, got {right_size}")
        self.left_size = left_size
        self.degree = degree
        self.right_size = right_size
        self.seed = seed
        self._base = splitmix64(seed ^ 0x0F0F_F0F0_1234_5678)
        self._cache: Dict[int, Tuple[int, ...]] = {}  # detlint: guarded(owner-lane) -- idempotent memo of a seeded pure function
        self._cache_size = cache_size

    def neighbors(self, x: int) -> Tuple[int, ...]:
        self._check_left(x)
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        base = self._base + x * self.degree
        out = tuple(
            splitmix64(base + i) % self.right_size for i in range(self.degree)
        )
        if len(self._cache) >= self._cache_size:
            self._cache.clear()
        self._cache[x] = out
        return out

    def evaluation_memory_words(self) -> int:
        """Words of internal memory the neighbor function needs: O(1)."""
        return 2
