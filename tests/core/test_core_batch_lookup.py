"""Tests for batched lookups on the §4.1 dictionary."""

import random

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.core.interface import DegradedLookupError
from repro.faults.plan import FaultPlan
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine

U = 1 << 18


def make(capacity=400, degree=16):
    machine = ParallelDiskMachine(degree, 32)
    return BasicDictionary(
        machine, universe_size=U, capacity=capacity, degree=degree, seed=5
    )


class TestLookupBatch:
    def test_results_match_single_lookups(self):
        d = make()
        rng = random.Random(0)
        ref = {}
        while len(ref) < 300:
            k, v = rng.randrange(U), rng.randrange(100)
            d.insert(k, v)
            ref[k] = v
        probes = list(ref)[:50] + [k for k in range(100) if k not in ref][:50]
        results, _cost = d.lookup_batch(probes)
        for key in probes:
            single = d.lookup(key)
            assert results[key].found == single.found
            assert results[key].value == single.value

    def test_distinct_keys_cost_at_most_one_round_each(self):
        d = make()
        keys = random.Random(1).sample(range(U), 200)
        for k in keys:
            d.insert(k, None)
        batch = keys[:32]
        _, cost = d.lookup_batch(batch)
        assert cost.read_ios <= len(batch)
        assert cost.write_ios == 0

    def test_repeated_key_costs_one_round(self):
        d = make()
        d.insert(7, "x")
        _, cost = d.lookup_batch([7] * 50)
        assert cost.read_ios == 1

    def test_skewed_batch_dedupes(self):
        """Zipf-ish repetition: far fewer rounds than batch size."""
        d = make()
        keys = random.Random(2).sample(range(U), 20)
        for k in keys:
            d.insert(k, None)
        skewed = [keys[i % 5] for i in range(100)]  # 5 hot keys, 100 probes
        _, cost = d.lookup_batch(skewed)
        assert cost.read_ios <= 5

    def test_empty_batch(self):
        d = make()
        results, cost = d.lookup_batch([])
        assert results == {}
        assert cost.total_ios == 0

    def test_key_validation(self):
        d = make()
        with pytest.raises(KeyError):
            d.lookup_batch([U])

    def test_batch_with_fragmented_values(self):
        machine = ParallelDiskMachine(16, 32)
        d = BasicDictionary(
            machine, universe_size=U, capacity=50, degree=16,
            k_fragments=4, seed=3,
        )
        d.insert(1, "abcdefgh")
        d.insert(2, "ijklmnop")
        results, _ = d.lookup_batch([1, 2, 3])
        assert results[1].value == "abcdefgh"
        assert results[2].value == "ijklmnop"
        assert not results[3].found


@pytest.mark.parametrize("cache_blocks", [None, 6])
@pytest.mark.parametrize("killed", [(), (1,)])
def test_multi_block_buckets_match_single_lookups(cache_blocks, killed):
    """A bucket spanning several blocks is a run of consecutive blocks in
    the batch plan; answers and degraded verdicts match per-key lookups,
    with and without a pool, healthy and with a disk down."""
    machine = ParallelDiskMachine(8, 4, cache_blocks=cache_blocks)
    d = BasicDictionary(
        machine, universe_size=U, capacity=40, degree=8, stripe_size=4,
        bucket_capacity=10, seed=2,
    )
    assert d.buckets.blocks_per_bucket == 3
    keys = random.Random(4).sample(range(U), 30)
    for k in keys:
        d.insert(k, k % 97)
    if killed:
        attach_faults(
            machine, FaultPlan.kill_disks(killed, num_disks=8).events
        )
    probes = keys + [k + 1 for k in keys[:10]]
    batch, _ = d.batch_lookup(probes)
    degraded = 0
    for key in probes:
        try:
            single = d.lookup(key)
        except DegradedLookupError as exc:
            degraded += 1
            assert isinstance(batch[key], DegradedLookupError)
            assert batch[key].membership == exc.membership
            continue
        assert (batch[key].found, batch[key].value) == (
            single.found, single.value,
        )
    assert bool(degraded) == bool(killed)


def test_wide_universe_batches_on_the_reference_kernel():
    """Keys past the kernels' 64-bit lanes (2**64 - 1 pads the numpy
    column rows) take the same pipeline on the reference kernel."""
    machine = ParallelDiskMachine(8, 16)
    d = BasicDictionary(
        machine, universe_size=1 << 70, capacity=64, degree=8, seed=4,
        kernel="numpy",
    )
    keys = [(1 << 64) - 1, 1 << 64, (1 << 69) + 3, 12345]
    for k in keys:
        d.insert(k, k % 1000)
    results, _ = d.lookup_batch(keys + [77])
    assert [results[k].value for k in keys] == [k % 1000 for k in keys]
    assert not results[77].found
