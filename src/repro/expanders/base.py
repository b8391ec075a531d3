"""Expander interfaces and parameter records.

Two equivalent views from the paper:

* **Definition 1**: a bipartite, left-``d``-regular graph ``G = (U, V, E)``
  is a ``(d, eps, delta)``-expander if any ``S ⊆ U`` has at least
  ``min((1 - eps) d |S|, (1 - delta) |V|)`` neighbors.
* **Definition 2**: ``G`` is an ``(N, eps)``-expander if any ``S ⊆ U`` with
  ``|S| <= N`` has at least ``(1 - eps) d |S|`` neighbors.

A *striped* graph partitions ``V`` into ``d`` equal stripes with exactly one
neighbor of every left vertex in each stripe; its neighbor function returns
``(stripe, index)`` pairs, matching the addressing of
:class:`~repro.pdm.striping.StripedFieldArray`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ExpanderParams:
    """Definition 1 parameters of a ``(d, eps, delta)``-expander."""

    d: int
    eps: float
    delta: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"degree must be positive, got {self.d}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.eps < 1.0 / self.d:
            # The paper notes eps cannot be smaller than 1/d once v < d*u.
            raise ValueError(
                f"eps={self.eps} is below 1/d={1.0 / self.d}; no such "
                f"expander exists for a compressing graph"
            )

    def guaranteed_neighbors(self, s: int, v: int) -> int:
        """Definition 1's lower bound on ``|Γ(S)|`` for ``|S| = s``."""
        return min(
            math.ceil((1 - self.eps) * self.d * s),
            math.ceil((1 - self.delta) * v),
        )


@dataclass(frozen=True)
class NEpsParams:
    """Definition 2 parameters of an ``(N, eps)``-expander."""

    N: int
    eps: float

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError(f"N must be positive, got {self.N}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

    def guaranteed_neighbors(self, s: int, d: int) -> int:
        """Definition 2's lower bound on ``|Γ(S)|`` for ``|S| = s <= N``."""
        if s > self.N:
            raise ValueError(f"Definition 2 only covers |S| <= N={self.N}")
        return math.ceil((1 - self.eps) * d * s)


class Expander:
    """A bipartite, left-``d``-regular graph given by its neighbor function.

    Subclasses implement :meth:`neighbors`; everything else in the library
    consumes only that method (plus the size attributes), mirroring the
    paper's "access to the expander for free" abstraction.
    """

    #: |U| — size of the left part (the key universe).
    left_size: int
    #: left degree d.
    degree: int
    #: |V| — size of the right part (the array of buckets/fields).
    right_size: int

    def neighbors(self, x: int) -> Tuple[int, ...]:
        """The multiset ``Γ(x)`` as a tuple of ``degree`` right-vertex ids."""
        raise NotImplementedError

    def neighbor(self, x: int, i: int) -> int:
        """``F(x, i)`` — the ``i``-th neighbor of ``x``."""
        return self.neighbors(x)[i]

    def _check_left(self, x: int) -> None:
        if not 0 <= x < self.left_size:
            raise IndexError(
                f"left vertex {x} out of range [0, {self.left_size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(u={self.left_size}, d={self.degree}, "
            f"v={self.right_size})"
        )


class StripedExpander(Expander):
    """An expander whose right part is partitioned into ``degree`` equal
    stripes, one neighbor per stripe.

    ``right_size == degree * stripe_size``; flat right-vertex id of stripe
    pair ``(i, j)`` is ``i * stripe_size + j``.
    """

    #: size of each stripe (v / d).
    stripe_size: int

    def striped_neighbors(self, x: int) -> Tuple[Tuple[int, int], ...]:
        """``Γ(x)`` as ``degree`` pairs ``(stripe, index)``, one per stripe,
        in stripe order."""
        raise NotImplementedError

    def neighbors(self, x: int) -> Tuple[int, ...]:
        return tuple(
            i * self.stripe_size + j for (i, j) in self.striped_neighbors(x)
        )

    def striped_neighbor(self, x: int, i: int) -> Tuple[int, int]:
        return self.striped_neighbors(x)[i]

    # -- batch evaluation --------------------------------------------------
    #
    # The generic forms loop over striped_neighbors, so every striped
    # graph supports batching; seeded graphs with a closed-form neighbor
    # map override them with one kernel call.  Both forms are
    # value-identical to the per-key calls they replace — the batch
    # kernels must never change an answer.

    def batch_local_indices(self, keys, kernel=None):
        """The local (per-stripe) bucket indices of many keys as one flat
        ``array('I')`` — ``degree`` entries per key, key-major."""
        from array import array

        out = array("I")
        for x in keys:
            out.extend(j for _, j in self.striped_neighbors(x))
        return out

    def batch_striped(self, keys, kernel=None):
        """``{key: striped_neighbors(key)}`` for many keys (keys should be
        distinct; insertion order is preserved)."""
        return {x: self.striped_neighbors(x) for x in keys}
