"""Property-based model tests for the striped field array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.pdm.errors import DiskFailure
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.striping import StripedFieldArray

STRIPES, STRIPE_SIZE, FIELD_BITS = 6, 20, 32

loc = st.tuples(st.integers(0, STRIPES - 1), st.integers(0, STRIPE_SIZE - 1))
field = st.integers(0, 2**FIELD_BITS - 1)  # a field is a FIELD_BITS-wide int
value = st.one_of(st.none(), field)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(loc, value), max_size=40),
    st.one_of(st.none(), st.integers(0, STRIPES - 1)),
)
def test_field_array_matches_dict_model(writes, dead_stripe):
    """Reads return the model's fields; with ``dead_stripe`` down, every
    location on it lands in ``failures`` only."""
    machine = ParallelDiskMachine(STRIPES, 16, item_bits=64)
    array = StripedFieldArray(
        machine,
        stripes=STRIPES,
        stripe_size=STRIPE_SIZE,
        field_bits=FIELD_BITS,
    )
    model = {}
    for location, val in writes:
        array.write_fields({location: val})
        if val is None:
            model.pop(location, None)
        else:
            model[location] = val
    all_locs = [
        (s, i) for s in range(STRIPES) for i in range(STRIPE_SIZE)
    ]
    if dead_stripe is not None:
        attach_faults(
            machine,
            FaultPlan.kill_disks([dead_stripe], num_disks=STRIPES).events,
        )
    contents, failures = array.read_fields(all_locs)
    for location in all_locs:
        if location[0] == dead_stripe:
            assert location not in contents
            assert isinstance(failures[location], DiskFailure)
        else:
            assert location not in failures
            assert contents[location] == model.get(location)
    assert array.occupied_fields() == len(model)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(loc, field, min_size=1, max_size=30)
)
def test_bulk_write_equals_pointwise_writes(assignments):
    m1 = ParallelDiskMachine(STRIPES, 16)
    a1 = StripedFieldArray(
        m1, stripes=STRIPES, stripe_size=STRIPE_SIZE, field_bits=FIELD_BITS
    )
    a1.write_fields(assignments)

    m2 = ParallelDiskMachine(STRIPES, 16)
    a2 = StripedFieldArray(
        m2, stripes=STRIPES, stripe_size=STRIPE_SIZE, field_bits=FIELD_BITS
    )
    for location, val in assignments.items():
        a2.write_fields({location: val})

    locs = list(assignments)
    assert a1.read_fields(locs) == a2.read_fields(locs)
    # Bulk never costs more write rounds than pointwise.
    assert m1.stats.write_ios <= m2.stats.write_ios


@settings(max_examples=30, deadline=None)
@given(st.sets(loc, min_size=1, max_size=STRIPES))
def test_one_per_stripe_reads_are_one_round(locations):
    """Any batch with at most one field per stripe is one parallel I/O."""
    by_stripe = {}
    for (s, i) in locations:
        by_stripe[s] = (s, i)  # keep one per stripe
    probe = list(by_stripe.values())
    machine = ParallelDiskMachine(STRIPES, 16)
    array = StripedFieldArray(
        machine, stripes=STRIPES, stripe_size=STRIPE_SIZE,
        field_bits=FIELD_BITS,
    )
    array.read_fields(probe)
    assert machine.stats.read_ios == 1
