"""The field-chain codec of Theorem 6(a).

A key ``x`` is assigned ``m = ceil(2d/3)`` of its ``d`` neighbors (stripe
indices ``i_1 < i_2 < ... < i_m``).  Its record of ``sigma`` bits is spread
over the corresponding fields of the retrieval array ``A`` as a linked list:

* the field at stripe ``i_t`` starts with the unary code of the *relative
  pointer* ``i_{t+1} - i_t`` (at least 1), then a 0-bit separator is implied
  by the unary code itself, then record data;
* the tail field (stripe ``i_m``) starts directly with a 0-bit;
* record data fills whatever space each field has left, in list order.

The membership sub-dictionary stores the *head pointer* ``i_1`` (``lg d``
bits) next to the key; decoding walks the chain from there, needing only the
``d`` fields fetched by the single parallel I/O.

Every record, fragment and field is a plain non-negative ``int`` whose width
its owner knows (``sigma``, ``field_bits``, the fragment width); bit 0 of
the paper's diagrams is the most significant bit of that width.  A field's
pointer therefore reads off in one word operation: :func:`chain_delta`
counts its leading 1-bits.

Space sanity (paper): the pointer overhead is ``sum(deltas) + m`` bits
``<= (d - 1) + m < 2d`` bits per key; with fields of
``ceil(3*sigma/(2d)) + 4`` bits the total capacity covers ``sigma`` plus the
overhead.  :func:`required_field_bits` computes the exact minimum for given
parameters so tests can check the paper's ``+4`` slack suffices.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence


class ChainCapacityError(Exception):
    """The assigned fields cannot hold the record plus pointer overhead."""


def _check_record(value: int, sigma: int) -> None:
    if sigma < 0:
        raise ValueError(f"negative record width {sigma}")
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if value >> sigma:
        raise ValueError(f"value {value} does not fit in {sigma} bits")


def chain_capacity_bits(stripe_indices: Sequence[int], field_bits: int) -> int:
    """Data capacity (in bits) of a chain over the given stripes.

    Each field loses its unary pointer: ``delta + 1`` bits for interior
    fields, 1 bit for the tail.
    """
    indices = list(stripe_indices)
    if not indices:
        return 0
    overhead = 0
    for prev, nxt in zip(indices, indices[1:]):
        if nxt <= prev:
            raise ValueError("stripe indices must be strictly increasing")
        overhead += (nxt - prev) + 1
    overhead += 1  # tail separator bit
    return len(indices) * field_bits - overhead


def required_field_bits(sigma: int, m: int, max_span: int) -> int:
    """Minimum uniform field width so that *any* chain of ``m`` strictly
    increasing stripes within ``max_span`` stripes (``max_span <= d``) can
    hold ``sigma`` record bits.

    Two constraints: aggregate capacity (worst-case pointer overhead is
    ``(max_span - 1) + m`` bits), and — since a field must contain its own
    unary header — the per-field floor ``max_delta + 2`` where the largest
    single delta is ``max_span - m + 1`` (one big gap, the rest adjacent).
    The paper's ``3 sigma / (2d) + 4`` form assumes the large-``sigma``
    regime where the aggregate term dominates.
    """
    if m <= 0:
        raise ValueError(f"need at least one field, got m={m}")
    overhead = (max_span - 1) + m
    aggregate = math.ceil((sigma + overhead) / m)
    per_field_floor = (max_span - m + 1) + 1
    return max(aggregate, per_field_floor)


def chain_delta(field: int, field_bits: int) -> int:
    """The relative pointer a field starts with: its leading 1-bits.

    ``0`` marks the tail of a chain.  Raises :class:`ChainCapacityError`
    for a field outside ``[0, 2^field_bits)`` or one whose unary code has
    no terminating 0-bit.
    """
    mask = (1 << field_bits) - 1
    if field < 0 or field > mask:
        raise ChainCapacityError(
            f"field {field} does not fit in {field_bits} bits"
        )
    delta = field_bits - (~field & mask).bit_length()
    if delta == field_bits:
        raise ChainCapacityError(
            f"{field_bits}-bit field has no unary terminator"
        )
    return delta


def encode_chain(
    value: int, sigma: int, stripe_indices: Sequence[int], field_bits: int
) -> Dict[int, int]:
    """Encode the ``sigma``-bit record ``value`` across the chain; returns
    stripe -> field contents.

    Every returned field is a ``field_bits``-wide int (data left-aligned,
    zero-padded), so it can be stored verbatim into a
    :class:`~repro.pdm.striping.StripedFieldArray` of that width.
    """
    _check_record(value, sigma)
    indices = list(stripe_indices)
    if not indices:
        raise ValueError("a chain needs at least one field")
    capacity = chain_capacity_bits(indices, field_bits)
    if capacity < sigma:
        raise ChainCapacityError(
            f"{len(indices)} fields of {field_bits} bits over stripes "
            f"{indices} hold {capacity} data bits; record needs {sigma}"
        )
    fields: Dict[int, int] = {}
    left = sigma  # record bits not yet placed
    for t, stripe in enumerate(indices):
        delta = indices[t + 1] - stripe if t + 1 < len(indices) else 0
        room = field_bits - delta - 1
        if room < 0:
            raise ChainCapacityError(
                f"a delta-{delta} pointer does not fit in {field_bits} bits"
            )
        take = min(room, left)
        left -= take
        chunk = (value >> left) & ((1 << take) - 1)
        fields[stripe] = (((1 << delta) - 1) << (room + 1)) | (
            chunk << (room - take)
        )
    return fields


def decode_chain(
    fields_by_stripe: Mapping[int, Optional[int]],
    head: int,
    field_bits: int,
    sigma: int,
    max_stripe: int,
) -> int:
    """Walk the chain starting at stripe ``head`` and reassemble the record.

    ``fields_by_stripe`` holds the (at least) visited fields, e.g. all ``d``
    fields returned by the one parallel I/O.  Raises ``KeyError`` if the walk
    leaves the provided fields and ``ChainCapacityError`` if a visited field
    is missing or malformed or fewer than ``sigma`` data bits are recovered.
    """
    record = 0
    data_bits = 0
    stripe = head
    while True:
        if stripe >= max_stripe:
            raise ChainCapacityError(
                f"chain walked to stripe {stripe}, past the last stripe "
                f"{max_stripe - 1}"
            )
        field = fields_by_stripe[stripe]
        if field is None:
            raise ChainCapacityError(f"field at stripe {stripe} is missing")
        delta = chain_delta(field, field_bits)
        room = field_bits - delta - 1
        record = (record << room) | (field & ((1 << room) - 1))
        data_bits += room
        if delta == 0:
            break
        stripe += delta
    if data_bits < sigma:
        raise ChainCapacityError(
            f"chain yielded {data_bits} data bits; record needs {sigma}"
        )
    return record >> (data_bits - sigma)


def split_record(value: int, sigma: int, width: int, count: int) -> List[int]:
    """Cut the ``sigma``-bit record ``value`` into ``count`` fragments of
    ``width`` bits, first fragment first; the last is zero-padded."""
    _check_record(value, sigma)
    spare = width * count - sigma
    if spare < 0:
        raise ValueError(
            f"{count} fragments of {width} bits cannot hold {sigma} bits"
        )
    padded = value << spare
    mask = (1 << width) - 1
    return [(padded >> (width * (count - 1 - t))) & mask for t in range(count)]


def join_record(frags: Sequence[int], sigma: int, width: int) -> int:
    """Inverse of :func:`split_record`: concatenate ``width``-bit fragments
    in order and keep the leading ``sigma`` bits."""
    record = 0
    for frag in frags:
        record = (record << width) | frag
    return record >> (width * len(frags) - sigma)
