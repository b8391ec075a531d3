"""k-wise independent polynomial hash families.

The paper's Section 1.1: with internal memory for ``O(log n)`` keys one can
store ``O(log n)``-wise independent hash functions, for which "a large range
of hashing algorithms can be shown to work well" [14, 15].  The classical
construction: a degree-``(k-1)`` polynomial with uniformly random
coefficients over a prime field ``GF(p)``, ``p > u``, evaluated by Horner's
rule and reduced to the table range.

Deterministic given its seed; its description (the ``k`` coefficients) is
charged to internal memory by callers via :attr:`description_words`.

Coefficients are derived from the seed with the repository's canonical
:func:`~repro.bits.mix.splitmix64` mixer rather than ``random.Random``:
the family is then a pure function of ``(seed, universe, range, k)`` with
no dependence on any PRNG implementation, and ``detlint`` (rule DET001)
can verify mechanically that no module-level RNG state is involved.
"""

from __future__ import annotations

from typing import List

from repro.bits.mix import derive, splitmix64


def _next_prime(n: int) -> int:
    """Smallest prime >= n (trial division — called once per family)."""

    def is_prime(m: int) -> bool:
        if m < 2:
            return False
        if m % 2 == 0:
            return m == 2
        f = 3
        while f * f <= m:
            if m % f == 0:
                return False
            f += 2
        return True

    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PolynomialHashFamily:
    """One member of the degree-``(k-1)`` polynomial family.

    ``h(x) = (sum_i a_i x^i mod p) mod range_size`` — ``k``-wise independent
    over ``GF(p)`` (the mod-range reduction costs the usual small
    non-uniformity, irrelevant at our load factors).
    """

    def __init__(
        self,
        *,
        universe_size: int,
        range_size: int,
        independence: int = 8,
        seed: int = 0,
    ):
        if universe_size <= 0 or range_size <= 0:
            raise ValueError("universe and range sizes must be positive")
        if independence < 2:
            raise ValueError(
                f"independence must be at least 2, got {independence}"
            )
        self.universe_size = universe_size
        self.range_size = range_size
        self.independence = independence
        self.seed = seed
        self.p = _next_prime(max(universe_size, range_size, 2))
        # 128 mixed bits per coefficient: the mod-p bias is ~p/2^128,
        # irrelevant even for universe-sized primes.
        base = derive(seed, universe_size, range_size, independence)
        coeffs: List[int] = [
            ((splitmix64(base + 2 * i) << 64) | splitmix64(base + 2 * i + 1))
            % self.p
            for i in range(independence)
        ]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[1] = 1  # keep the map non-constant
        self.coeffs = coeffs

    @property
    def description_words(self) -> int:
        """Internal-memory footprint: the coefficients plus the modulus."""
        return self.independence + 1

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = (acc * x + a) % self.p
        return acc % self.range_size

    def rehashed(self, attempt: int) -> "PolynomialHashFamily":
        """A fresh member of the family (for rebuild-on-failure schemes)."""
        return PolynomialHashFamily(
            universe_size=self.universe_size,
            range_size=self.range_size,
            independence=self.independence,
            seed=self.seed + 0x9E3779B9 * (attempt + 1),
        )

    def with_range(self, range_size: int) -> "PolynomialHashFamily":
        """Same coefficients, different table size."""
        clone = object.__new__(PolynomialHashFamily)
        clone.universe_size = self.universe_size
        clone.range_size = range_size
        clone.independence = self.independence
        clone.seed = self.seed
        clone.p = self.p
        clone.coeffs = list(self.coeffs)
        return clone
