"""A truly explicit striped expander, from Parvaresh–Vardy codes
(Guruswami–Umans–Vadhan).

Section 6 of the paper: "Obviously, improved expander constructions would
be highly interesting in the context of the algorithms presented in this
paper.  It seems possible that practical and truly simple constructions
could exist."  One year after SPAA 2006, Guruswami, Umans and Vadhan
(CCC 2007 / J.ACM 2009) delivered exactly that; we include their
construction because it is (a) genuinely simple, (b) fully deterministic —
no seeds anywhere — and (c) **naturally striped**, the property Section 2
demands and no earlier explicit construction had:

    Left vertices:  polynomials ``f`` of degree < ``n`` over ``F_q``
                    (universe ``u = q^n``);
    Degree:         ``d = q`` — one neighbor per evaluation point
                    ``y ∈ F_q``;
    Neighbor:       ``Γ(f, y) = (y; f_0(y), f_1(y), ..., f_{m-1}(y))``
                    where ``f_0 = f`` and ``f_{i+1} = f_i^h mod E`` for a
                    fixed irreducible ``E`` of degree ``n``;
    Right side:     ``q^{m+1}``, which is *striped by construction*: the
                    first coordinate ``y`` is the stripe, the remaining
                    ``m`` coordinates the index within it.

Guarantee (GUV; see also Vadhan, *Pseudorandomness*, Thm 5.35): the graph
is an ``(h^m, A)`` vertex expander with ``A ≥ q - (n-1)(h-1)m``; in the
paper's Definition 2 terms, an ``(N = h^m, ε)``-expander with
``ε ≤ (n-1)(h-1)m / q``.  We expose the slightly more conservative
``ε = n·h·m/q`` and let :mod:`repro.expanders.verify` certify concrete
instances.

Trade-off vs the paper's target parameters: the degree ``q`` must beat
``n·h·m/ε`` (polynomial in ``log u``, good) but the right side is
``q^{m+1}`` rather than ``O(N d)`` — truly explicit, space-suboptimal,
precisely the state of the art the paper describes.  Evaluation needs
``O(n m)`` field elements of internal memory and no I/O.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.expanders.base import StripedExpander

# ---------------------------------------------------------------------------
# Arithmetic in F_p[X] (p prime), polynomials as low-to-high coefficient
# tuples.
# ---------------------------------------------------------------------------


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _poly_trim(a: Sequence[int]) -> Tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], e: Sequence[int], p: int) -> Tuple[int, ...]:
    """``a mod e`` where ``e`` is monic."""
    a = list(a)
    de = len(e) - 1
    while len(a) - 1 >= de and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1]
        shift = len(a) - 1 - de
        for i, ei in enumerate(e):
            a[shift + i] = (a[shift + i] - coef * ei) % p
        while a and a[-1] == 0:
            a.pop()
    return _poly_trim(a)


def _poly_powmod(
    f: Sequence[int], exp: int, e: Sequence[int], p: int
) -> Tuple[int, ...]:
    result: Tuple[int, ...] = (1,)
    base = _poly_mod(f, e, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), e, p)
        base = _poly_mod(_poly_mul(base, base, p), e, p)
        exp >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        # a mod b with b made monic.
        inv = pow(b[-1], p - 2, p)
        monic = tuple((c * inv) % p for c in b)
        a, b = b, _poly_mod(a, monic, p)
    return a


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % p
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _poly_trim(out)


def is_irreducible(e: Sequence[int], p: int) -> bool:
    """Rabin's test: ``E`` (monic, degree n) is irreducible over ``F_p``
    iff ``X^{p^n} ≡ X (mod E)`` and ``gcd(X^{p^{n/t}} - X, E) = 1`` for
    every prime ``t | n``."""
    e = tuple(c % p for c in e)
    n = len(e) - 1
    if n <= 0 or e[-1] != 1:
        return False
    x = (0, 1)

    def x_pow_p_i(i: int) -> Tuple[int, ...]:
        # X^(p^i) mod E by iterated Frobenius.
        out = x
        for _ in range(i):
            out = _poly_powmod(out, p, e, p)
        return out

    # Condition 2 first (cheaper failures).
    factors = set()
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.add(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for t in sorted(factors):
        g = _poly_gcd(_poly_sub(x_pow_p_i(n // t), x, p), e, p)
        if len(g) - 1 != 0:
            return False
    return _poly_sub(x_pow_p_i(n), x, p) == ()


def find_irreducible(p: int, n: int) -> Tuple[int, ...]:
    """Deterministic search: the lexicographically first monic irreducible
    of degree ``n`` over ``F_p`` (constant-first enumeration)."""
    if n == 1:
        return (0, 1)
    # Enumerate lower coefficients in base-p counting order.
    for code in range(p**n):
        coeffs = []
        rem = code
        for _ in range(n):
            coeffs.append(rem % p)
            rem //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise ArithmeticError(
        f"no irreducible of degree {n} over F_{p} (impossible)"
    )


# ---------------------------------------------------------------------------
# The expander.
# ---------------------------------------------------------------------------


class GUVExpander(StripedExpander):
    """The Parvaresh–Vardy-code expander, striped by its ``y`` coordinate."""

    def __init__(
        self,
        *,
        p: int,
        n: int,
        m: int,
        h: int,
    ):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1 or m < 1:
            raise ValueError("n and m must be at least 1")
        if h < 2:
            raise ValueError(f"h must be at least 2, got {h}")
        if h >= p:
            raise ValueError(f"need h < p (got h={h}, p={p})")
        self.p = p
        self.n = n
        self.m = m
        self.h = h
        self.E = find_irreducible(p, n)
        self.left_size = p**n
        self.degree = p
        self.stripe_size = p**m
        self.right_size = self.degree * self.stripe_size

    # -- guarantees ----------------------------------------------------------

    @property
    def N_guarantee(self) -> int:
        """Sets up to ``h^m`` are guaranteed to expand."""
        return self.h**self.m

    @property
    def eps_guarantee(self) -> float:
        """Conservative Definition-2 error: ``n h m / p``."""
        return min(1.0, self.n * self.h * self.m / self.p)

    @property
    def is_truly_explicit(self) -> bool:
        """No random bits anywhere: field, modulus and map are canonical."""
        return True

    def evaluation_memory_words(self) -> int:
        """Internal memory to evaluate neighbors: E plus the m folded
        polynomials (O(n m) field elements)."""
        return (self.n + 1) + self.n * self.m

    # -- neighbor function -----------------------------------------------------

    def _decode(self, x: int) -> Tuple[int, ...]:
        coeffs = []
        for _ in range(self.n):
            coeffs.append(x % self.p)
            x //= self.p
        return _poly_trim(coeffs)

    def striped_neighbors(self, x: int) -> Tuple[Tuple[int, int], ...]:
        self._check_left(x)
        p, m = self.p, self.m
        f = self._decode(x)
        folded: List[Tuple[int, ...]] = [f]
        for _ in range(m - 1):
            folded.append(_poly_powmod(folded[-1], self.h, self.E, p))
        out = []
        for y in range(p):
            index = 0
            power = 1
            for fi in folded:
                # Horner evaluation of fi at y.
                val = 0
                for c in reversed(fi):
                    val = (val * y + c) % p
                index += val * power
                power *= p
            out.append((y, index))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GUVExpander(p={self.p}, n={self.n}, m={self.m}, h={self.h}: "
            f"u={self.left_size}, d={self.degree}, N={self.N_guarantee}, "
            f"eps<={self.eps_guarantee:.3f})"
        )

    @classmethod
    def design(
        cls,
        *,
        min_universe: int,
        min_N: int,
        max_eps: float,
        max_degree: int = 1024,
    ) -> "GUVExpander":
        """Smallest-degree instance with ``u >= min_universe``,
        ``N_guarantee >= min_N`` and ``eps_guarantee <= max_eps``."""
        best = None
        for h in (2, 3, 4):
            m = max(1, math.ceil(math.log(max(min_N, 2), h)))
            for n in range(1, 13):
                p_min = math.ceil(n * h * m / max_eps)
                p = max(p_min, h + 1, 2)
                while not _is_prime(p):
                    p += 1
                if p > max_degree:
                    continue
                if p**n < min_universe:
                    continue
                if best is None or p < best[0]:
                    best = (p, n, m, h)
        if best is None:
            raise ValueError(
                f"no GUV instance with degree <= {max_degree} meets the "
                f"requirements (u >= {min_universe}, N >= {min_N}, "
                f"eps <= {max_eps})"
            )
        p, n, m, h = best
        return cls(p=p, n=n, m=m, h=h)
