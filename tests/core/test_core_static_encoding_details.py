"""Bit-level layout checks of the Theorem 6 field encodings.

These tests pin the on-disk formats by decoding raw field contents by
hand, independent of the library's own decoders — so any change to the
layout (the identifiers of case (b), the unary chains of case (a)) breaks
loudly here rather than silently elsewhere.
"""

import math
import random

import pytest

from repro.core.static_dict import StaticDictionary, fields_needed
from repro.pdm.machine import ParallelDiskMachine

U = 1 << 18


def bits_of(field, width):
    """A ``width``-bit int field as its bit string, first bit first."""
    assert 0 <= field < (1 << width)
    return format(field, f"0{width}b") if width else ""


def build(case, items, sigma, degree=16, seed=4):
    disks = degree * (2 if case == "a" else 1)
    machine = ParallelDiskMachine(disks, 32)
    return StaticDictionary.build(
        machine, items, universe_size=U, sigma=sigma, case=case,
        degree=degree, seed=seed,
    )


class TestCaseBLayout:
    def test_field_holds_identifier_and_fragment(self):
        rng = random.Random(1)
        items = {rng.randrange(U): rng.randrange(1 << 24) for _ in range(50)}
        d = build("b", items, sigma=24)
        keys_sorted = sorted(items)
        m = fields_needed(d.degree)
        frag_w = math.ceil(24 / m)
        for key in keys_sorted[:10]:
            ident = keys_sorted.index(key)
            stripes = d.assignment[key]
            idx = dict(d.graph.striped_neighbors(key))
            # Manually reassemble the record from raw fields.
            record_bits = ""
            for stripe in stripes:
                field = d.array.peek((stripe, idx[stripe]))
                assert field is not None
                stored_ident, frag = field
                assert stored_ident == ident
                record_bits += bits_of(frag, frag_w)
            assert int(record_bits[:24], 2) == items[key]

    def test_exactly_m_fields_per_key(self):
        rng = random.Random(2)
        items = {rng.randrange(U): 0 for _ in range(60)}
        d = build("b", items, sigma=8)
        m = fields_needed(d.degree)
        assert d.array.occupied_fields() == m * len(items)

    def test_unassigned_fields_stay_none(self):
        items = {5: 1, 900: 2}
        d = build("b", items, sigma=8)
        m = fields_needed(d.degree)
        assert d.array.occupied_fields() == 2 * m


class TestCaseALayout:
    def test_chain_walk_by_hand(self):
        """Walk a stored chain with a hand-rolled unary parser and recover
        the record, byte for byte."""
        rng = random.Random(3)
        items = {rng.randrange(U): rng.randrange(1 << 40) for _ in range(40)}
        sigma = 40
        d = build("a", items, sigma=sigma)
        for key in list(items)[:10]:
            head = d.membership.lookup(key).value
            idx = dict(d.graph.striped_neighbors(key))
            stripe = head
            data_bits = ""
            hops = 0
            while True:
                field = d.array.peek((stripe, idx[stripe]))
                # Shift/mask parser: test the top bit until the 0-bit.
                pos = d.field_bits - 1
                delta = 0
                while (field >> pos) & 1:
                    delta += 1
                    pos -= 1
                data_bits += bits_of(field & ((1 << pos) - 1), pos)
                hops += 1
                if delta == 0:
                    break
                stripe += delta
            assert hops == fields_needed(d.degree)
            assert int(data_bits[:sigma], 2) == items[key]

    def test_head_pointer_is_smallest_assigned_stripe(self):
        rng = random.Random(5)
        items = {rng.randrange(U): 1 for _ in range(30)}
        d = build("a", items, sigma=8)
        for key in items:
            head = d.membership.lookup(key).value
            assert head == min(d.assignment[key])

    def test_field_width_matches_paper_formula_large_sigma(self):
        """For sigma >> d the width is ceil(3 sigma/(2d)) + 4 exactly."""
        rng = random.Random(6)
        sigma, degree = 4000, 16
        items = {rng.randrange(U): rng.randrange(1 << sigma)
                 for _ in range(10)}
        d = build("a", items, sigma=sigma)
        assert d.field_bits == math.ceil(3 * sigma / (2 * degree)) + 4

    def test_pointer_overhead_under_2d_bits(self):
        """Paper: 'the entire space occupied by the pointer data is less
        than 2d bits per element'."""
        rng = random.Random(7)
        items = {rng.randrange(U): rng.randrange(1 << 40)
                 for _ in range(40)}
        d = build("a", items, sigma=40)
        for key in list(items)[:15]:
            idx = dict(d.graph.striped_neighbors(key))
            pointer_bits = 0
            for stripe in d.assignment[key]:
                field = d.array.peek((stripe, idx[stripe]))
                pos = d.field_bits - 1
                while (field >> pos) & 1:
                    pointer_bits += 1
                    pos -= 1
                pointer_bits += 1  # the terminating 0
            assert pointer_bits < 2 * d.degree
