"""Unit tests for striped field arrays and item buckets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.striping import StripedFieldArray, StripedItemBuckets


@pytest.fixture
def array(machine):
    return StripedFieldArray(
        machine, stripes=8, stripe_size=64, field_bits=32
    )


class TestFieldArrayGeometry:
    def test_num_fields(self, array):
        assert array.num_fields == 8 * 64

    def test_fields_per_block(self, array, machine):
        assert array.fields_per_block == machine.block_bits // 32

    def test_field_too_wide_rejected(self, machine):
        with pytest.raises(ValueError):
            StripedFieldArray(
                machine,
                stripes=8,
                stripe_size=4,
                field_bits=machine.block_bits + 1,
            )

    def test_too_many_stripes_rejected(self, machine):
        with pytest.raises(ValueError):
            StripedFieldArray(
                machine, stripes=machine.num_disks + 1, stripe_size=4,
                field_bits=32,
            )

    def test_out_of_range_location_rejected(self, array):
        with pytest.raises(IndexError):
            array.read_fields([(8, 0)])
        with pytest.raises(IndexError):
            array.read_fields([(0, 64)])


class TestFieldArrayIO:
    def test_unwritten_fields_read_none(self, array):
        out = array.read_fields([(0, 0), (3, 17)])
        assert out == ({(0, 0): None, (3, 17): None}, {})

    def test_write_then_read(self, array):
        array.write_fields({(2, 5): "hello", (7, 63): 1234})
        out, failures = array.read_fields([(2, 5), (7, 63)])
        assert failures == {}
        assert out[(2, 5)] == "hello"
        assert out[(7, 63)] == 1234

    def test_one_field_per_stripe_is_one_io(self, array, machine):
        locs = [(s, 7) for s in range(8)]
        snap = machine.stats.snapshot()
        array.read_fields(locs)
        assert machine.stats.since(snap).read_ios == 1

    def test_write_none_clears(self, array):
        array.write_fields({(1, 1): "x"})
        array.write_fields({(1, 1): None})
        assert array.read_fields([(1, 1)])[0][(1, 1)] is None

    def test_fields_in_same_block_one_io(self, array, machine):
        # Indices 0 and 1 of a stripe share a block (fields_per_block = 32).
        snap = machine.stats.snapshot()
        array.read_fields([(0, 0), (0, 1)])
        assert machine.stats.since(snap).read_ios == 1

    def test_fields_in_different_blocks_same_stripe_two_ios(
        self, array, machine
    ):
        far = array.fields_per_block  # first index of the second block
        assert far <= 63, "test geometry assumption"
        snap = machine.stats.snapshot()
        array.read_fields([(0, 0), (0, far)])
        assert machine.stats.since(snap).read_ios == 2

    def test_peek_matches_read_without_io(self, array, machine):
        array.write_fields({(4, 4): "z"})
        snap = machine.stats.snapshot()
        assert array.peek((4, 4)) == "z"
        assert machine.stats.since(snap).total_ios == 0

    def test_occupied_fields_counts(self, array):
        array.write_fields({(0, 0): "a", (1, 1): "b", (1, 2): "c"})
        assert array.occupied_fields() == 3

    def test_bit_accounting(self, array, machine):
        array.write_fields({(0, 0): "a", (0, 1): "b"})
        blk = machine.block_at((0, array._base[0]))
        assert blk.used_bits == 2 * 32


class TestTwoArraysShareMachine:
    def test_no_address_collision(self, machine):
        a = StripedFieldArray(machine, stripes=8, stripe_size=8, field_bits=64)
        b = StripedFieldArray(machine, stripes=8, stripe_size=8, field_bits=64)
        a.write_fields({(0, 0): "from-a"})
        b.write_fields({(0, 0): "from-b"})
        assert a.read_fields([(0, 0)])[0][(0, 0)] == "from-a"
        assert b.read_fields([(0, 0)])[0][(0, 0)] == "from-b"


@pytest.fixture
def buckets(machine):
    return StripedItemBuckets(
        machine, stripes=8, stripe_size=16, capacity_items=16
    )


class TestItemBuckets:
    def test_empty_bucket_reads_empty(self, buckets):
        assert buckets.read_buckets([(0, 0)])[(0, 0)] == []

    def test_write_read_roundtrip(self, buckets):
        buckets.write_buckets({(3, 3): [(1, "a"), (2, "b")]})
        assert buckets.read_buckets([(3, 3)])[(3, 3)] == [(1, "a"), (2, "b")]

    def test_one_bucket_per_stripe_one_io(self, buckets, machine):
        snap = machine.stats.snapshot()
        buckets.read_buckets([(s, s) for s in range(8)])
        assert machine.stats.since(snap).read_ios == 1

    def test_overflow_raises(self, buckets):
        with pytest.raises(OverflowError):
            buckets.write_buckets({(0, 0): list(range(17))})

    def test_loads_audit(self, buckets):
        buckets.write_buckets({(0, 0): [1], (5, 2): [1, 2, 3]})
        assert buckets.loads() == {(0, 0): 1, (5, 2): 3}

    def test_single_block_bucket_geometry(self, buckets):
        assert buckets.blocks_per_bucket == 1


class TestMultiBlockBuckets:
    """The small-B regime: buckets hold more than one block's items."""

    def test_blocks_per_bucket(self, machine):
        b = StripedItemBuckets(
            machine, stripes=4, stripe_size=4, capacity_items=40
        )  # 16 items per block -> 3 blocks
        assert b.blocks_per_bucket == 3

    def test_roundtrip_across_blocks(self, machine):
        b = StripedItemBuckets(
            machine, stripes=4, stripe_size=4, capacity_items=40
        )
        items = [(i, i * i) for i in range(40)]
        b.write_buckets({(1, 2): items})
        assert b.read_buckets([(1, 2)])[(1, 2)] == items

    def test_read_costs_blocks_per_bucket_ios(self, machine):
        b = StripedItemBuckets(
            machine, stripes=4, stripe_size=4, capacity_items=40
        )
        snap = machine.stats.snapshot()
        b.read_buckets([(0, 0)])
        assert machine.stats.since(snap).read_ios == 3

    def test_shrinking_bucket_clears_tail_blocks(self, machine):
        b = StripedItemBuckets(
            machine, stripes=4, stripe_size=4, capacity_items=40
        )
        b.write_buckets({(0, 0): [(i, None) for i in range(40)]})
        b.write_buckets({(0, 0): [(0, None)]})
        assert b.read_buckets([(0, 0)])[(0, 0)] == [(0, None)]


@settings(max_examples=25, deadline=None)
@given(
    assignments=st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 15)),
        st.lists(st.integers(), max_size=16),
        max_size=20,
    )
)
def test_bucket_state_matches_model(assignments):
    """Property: after arbitrary writes, reads agree with a plain dict."""
    machine = ParallelDiskMachine(8, 16, item_bits=64)
    buckets = StripedItemBuckets(
        machine, stripes=8, stripe_size=16, capacity_items=16
    )
    model = {}
    for loc, items in assignments.items():
        buckets.write_buckets({loc: items})
        model[loc] = items
    for loc, items in model.items():
        assert buckets.read_buckets([loc])[loc] == items
