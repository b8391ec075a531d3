"""Field codecs and deterministic mixers.

Theorem 6(a) of the paper packs, into each field of the retrieval array,
*unary-coded relative pointers* followed by a 0-bit separator and then raw
record data ("the fraction of an array field dedicated to pointer data will
vary among fields").  Reproducing the space bound honestly requires doing
this at the bit level; every record, fragment and field is a plain ``int``
of a width its owner knows.  This package supplies the machinery:

* :mod:`~repro.bits.fields` — the field-chain codec: splitting a record
  across the fields assigned to a key, reassembling it from the head
  pointer (:func:`~repro.bits.fields.chain_delta` reads one pointer in a
  word operation), and fixed-width record fragments
  (:func:`~repro.bits.fields.split_record` /
  :func:`~repro.bits.fields.join_record`).
* :mod:`~repro.bits.mix` — the canonical deterministic mixers
  (:func:`~repro.bits.mix.splitmix64`, :func:`~repro.bits.mix.stable_hash`,
  :func:`~repro.bits.mix.derive`): the only sanctioned sources of
  "random-looking" values anywhere in the repository.
"""

from repro.bits.mix import derive, splitmix64, stable_hash
from repro.bits.stream import MixStream
from repro.bits.fields import (
    ChainCapacityError,
    chain_capacity_bits,
    chain_delta,
    encode_chain,
    decode_chain,
    join_record,
    required_field_bits,
    split_record,
)

__all__ = [
    "ChainCapacityError",
    "chain_capacity_bits",
    "chain_delta",
    "encode_chain",
    "decode_chain",
    "join_record",
    "required_field_bits",
    "split_record",
    "derive",
    "splitmix64",
    "stable_hash",
    "MixStream",
]
