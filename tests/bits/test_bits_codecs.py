"""Unit and property tests for the unary pointer and the int field codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.fields import (
    ChainCapacityError,
    chain_capacity_bits,
    chain_delta,
    decode_chain,
    encode_chain,
    join_record,
    required_field_bits,
    split_record,
)


class TestUnary:
    """The relative pointer a field starts with, read by ``chain_delta``."""

    def test_zero_is_single_zero_bit(self):
        # A tail field: one 0-bit, then data (here all ones).
        assert chain_delta(0b0111_1111, 8) == 0
        assert encode_chain(0b111_1111, 7, [3], 8) == {3: 0b0111_1111}

    def test_three(self):
        assert chain_delta(0b1110_0000, 8) == 3
        assert chain_delta(0b1110_1011, 8) == 3  # data bits are ignored

    def test_negative_rejected(self):
        with pytest.raises(ChainCapacityError):
            chain_delta(-1, 8)
        with pytest.raises(ValueError):
            encode_chain(0, 0, [4, 2], 8)  # a negative delta

    @given(st.integers(0, 200), st.data())
    def test_roundtrip(self, n, data):
        width = 256
        room = width - n - 1
        payload = data.draw(st.integers(0, (1 << room) - 1))
        field = (((1 << n) - 1) << (room + 1)) | payload
        assert chain_delta(field, width) == n

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10))
    def test_stream_of_codewords(self, values):
        stripes = [0]
        for v in values:
            stripes.append(stripes[-1] + v)
        fields = encode_chain(0, 0, stripes, 32)
        assert [chain_delta(fields[s], 32) for s in stripes] == values + [0]


class TestChainCapacity:
    def test_single_field(self):
        # One field: only the tail's 0-bit is overhead.
        assert chain_capacity_bits([3], 10) == 9

    def test_two_adjacent_fields(self):
        # Delta 1 costs 2 bits (one 1, one 0), tail costs 1.
        assert chain_capacity_bits([3, 4], 10) == 20 - 2 - 1

    def test_gap_costs_more(self):
        assert chain_capacity_bits([0, 5], 10) < chain_capacity_bits(
            [0, 1], 10
        )

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            chain_capacity_bits([4, 4], 10)

    def test_empty_chain(self):
        assert chain_capacity_bits([], 10) == 0


class TestRequiredFieldBits:
    def test_covers_paper_formula_for_large_sigma(self):
        """For sigma >> d the paper's ceil(3 sigma / 2d) + 4 dominates."""
        d, sigma = 30, 4000
        m = -(-2 * d // 3)
        assert required_field_bits(sigma, m, d) <= -(-3 * sigma // (2 * d)) + 4

    def test_per_field_floor_for_tiny_sigma(self):
        # The largest unary header must fit in one field.
        d, m = 30, 20
        assert required_field_bits(1, m, d) >= (d - m + 1) + 1

    def test_zero_fields_rejected(self):
        with pytest.raises(ValueError):
            required_field_bits(10, 0, 5)


chains = st.integers(4, 24).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.integers(0, d - 1), unique=True, min_size=1, max_size=d
        ).map(sorted),
    )
)

#: ``(value, sigma, stripes, field_bits) -> fields``, pinned to the bit
#: patterns of the original bit-string codec: pointer, 0-bit, data,
#: zero padding, first bit most significant.
LAYOUTS = [
    ((0b1011_0011_1101, 12, [0, 2, 3], 8), {0: 0xD6, 2: 0x9E, 3: 0x40}),
    (
        (0xA5C3F00F1E, 40, [1, 4, 5, 9, 12], 16),
        {1: 0xEA5C, 4: 0x8FC0, 5: 0xF1E3, 9: 0xEC00, 12: 0x0},
    ),
    ((5, 4, [0, 3, 7], 10), {0: 0x394, 3: 0x3C0, 7: 0x0}),
]


class TestChainCodec:
    def test_simple_roundtrip(self):
        record = 0b1011_0011_1101
        fields = encode_chain(record, 12, [0, 2, 3], 8)
        assert set(fields) == {0, 2, 3}
        assert all(0 <= f < 1 << 8 for f in fields.values())
        out = decode_chain(fields, 0, 8, 12, 8)
        assert out == record

    @pytest.mark.parametrize("args, fields", LAYOUTS)
    def test_layout_is_pinned(self, args, fields):
        assert encode_chain(*args) == fields

    def test_capacity_error(self):
        with pytest.raises(ChainCapacityError):
            encode_chain((1 << 100) - 1, 100, [0, 1], 8)
        with pytest.raises(ChainCapacityError):
            # Enough bits in total, but the delta-10 pointer overflows
            # its own 8-bit field.
            encode_chain(0, 0, [0, 10, 11], 8)

    def test_record_must_fit_sigma(self):
        with pytest.raises(ValueError):
            encode_chain(16, 4, [0, 1], 8)
        with pytest.raises(ValueError):
            encode_chain(-1, 4, [0, 1], 8)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            encode_chain(1, 1, [], 8)

    def test_decode_missing_field_fails(self):
        fields = encode_chain(5, 4, [0, 2], 8)
        del fields[2]
        with pytest.raises((KeyError, ChainCapacityError)):
            decode_chain(fields, 0, 8, 4, 8)

    @pytest.mark.parametrize(
        "field, max_stripe",
        [
            (0b1111_0000, 3),  # delta 4 from stripe 0, past the last stripe
            (0b1111_1111, 8),  # no terminating 0-bit
            (1 << 8, 8),  # wider than the 8-bit field
        ],
        ids=["past-last-stripe", "no-terminator", "too-wide"],
    )
    def test_decode_walk_beyond_stripes_fails(self, field, max_stripe):
        # A corrupted header must be caught as a capacity error.
        with pytest.raises(ChainCapacityError):
            decode_chain({0: field}, 0, 8, 4, max_stripe)

    def test_decoding_ignores_unrelated_fields(self):
        """Fields of other keys sitting between chain hops are skipped."""
        record = 0b10110
        fields = encode_chain(record, 5, [1, 4], 8)
        fields[2] = 0xFF  # unrelated garbage
        fields[3] = 0
        assert decode_chain(fields, 1, 8, 5, 8) == record

    @settings(max_examples=80, deadline=None)
    @given(chains, st.data())
    def test_roundtrip_property(self, chain, data):
        d, stripes = chain
        m = len(stripes)
        field_bits = required_field_bits(
            data.draw(st.integers(0, 64)), m, d
        )
        capacity = chain_capacity_bits(stripes, field_bits)
        sigma = data.draw(st.integers(0, capacity))
        record = data.draw(st.integers(0, (1 << sigma) - 1))
        fields = encode_chain(record, sigma, stripes, field_bits)
        assert all(0 <= f < 1 << field_bits for f in fields.values())
        out = decode_chain(fields, stripes[0], field_bits, sigma, d)
        assert out == record


class TestRecordFragments:
    def test_last_fragment_is_zero_padded(self):
        # 0b10110 in 2-bit fragments: 10 11 0(0).
        assert split_record(0b10110, 5, 2, 3) == [0b10, 0b11, 0b00]
        assert join_record([0b10, 0b11, 0b00], 5, 2) == 0b10110

    def test_record_must_fit(self):
        with pytest.raises(ValueError):
            split_record(32, 5, 2, 3)
        with pytest.raises(ValueError):
            split_record(0, 5, 2, 2)  # 4 bits of fragments for 5

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 24), st.integers(0, 8), st.data())
    def test_roundtrip_property(self, sigma, count, extra, data):
        width = -(-sigma // count) + extra
        value = data.draw(st.integers(0, (1 << sigma) - 1))
        frags = split_record(value, sigma, width, count)
        assert len(frags) == count
        assert all(0 <= f < 1 << width for f in frags)
        assert join_record(frags, sigma, width) == value
