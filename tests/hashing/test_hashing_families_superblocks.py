"""Tests for hash families and superblock storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.families import PolynomialHashFamily, _next_prime
from repro.pdm.superblocks import SuperblockArray
from repro.pdm.machine import ParallelDiskMachine


class TestNextPrime:
    def test_small_values(self):
        assert _next_prime(2) == 2
        assert _next_prime(8) == 11
        assert _next_prime(13) == 13
        assert _next_prime(14) == 17

    @given(st.integers(2, 10_000))
    def test_result_is_prime_and_geq(self, n):
        p = _next_prime(n)
        assert p >= n
        assert all(p % f for f in range(2, int(p**0.5) + 1))


class TestPolynomialHashFamily:
    def test_range(self):
        h = PolynomialHashFamily(
            universe_size=1 << 16, range_size=100, independence=4, seed=1
        )
        assert all(0 <= h(x) < 100 for x in range(0, 1 << 16, 997))

    def test_deterministic(self):
        mk = lambda: PolynomialHashFamily(
            universe_size=1000, range_size=50, seed=9
        )
        a, b = mk(), mk()
        assert all(a(x) == b(x) for x in range(1000))

    def test_rehash_differs(self):
        h = PolynomialHashFamily(universe_size=1000, range_size=50, seed=9)
        h2 = h.rehashed(1)
        assert any(h(x) != h2(x) for x in range(1000))

    def test_with_range(self):
        h = PolynomialHashFamily(universe_size=1000, range_size=50, seed=9)
        h2 = h.with_range(10)
        assert h2.coeffs == h.coeffs
        assert all(0 <= h2(x) < 10 for x in range(100))

    def test_description_words(self):
        h = PolynomialHashFamily(
            universe_size=1000, range_size=50, independence=8, seed=0
        )
        assert h.description_words == 9

    def test_spread(self):
        """Hash values spread over the range (no constant function)."""
        h = PolynomialHashFamily(
            universe_size=1 << 16, range_size=64, independence=8, seed=3
        )
        buckets = {h(x) for x in range(1000)}
        assert len(buckets) > 32

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialHashFamily(universe_size=0, range_size=10)
        with pytest.raises(ValueError):
            PolynomialHashFamily(
                universe_size=10, range_size=10, independence=1
            )


class TestSuperblockArray:
    @pytest.fixture
    def arr(self, machine):
        return SuperblockArray(machine, num_superblocks=10)

    def test_capacity(self, arr, machine):
        assert arr.capacity_items == machine.D * machine.B

    def test_read_write_roundtrip(self, arr):
        items = [(i, str(i)) for i in range(30)]
        arr.write({3: items})
        assert arr.read([3])[3] == items

    def test_superblock_read_is_one_io(self, arr, machine):
        snap = machine.stats.snapshot()
        arr.read([5])
        assert machine.stats.since(snap).read_ios == 1

    def test_two_superblocks_two_ios(self, arr, machine):
        snap = machine.stats.snapshot()
        arr.read([1, 2])
        assert machine.stats.since(snap).read_ios == 2

    def test_overflow_rejected(self, arr):
        with pytest.raises(OverflowError):
            arr.write({0: list(range(arr.capacity_items + 1))})

    def test_out_of_range(self, arr):
        with pytest.raises(IndexError):
            arr.read([10])

    def test_occupancy_audit(self, arr, machine):
        arr.write({0: [1], 7: [1, 2]})
        snap = machine.stats.snapshot()
        assert arr.occupancy() == {0: 1, 7: 2}
        assert machine.stats.since(snap).total_ios == 0

    def test_disjoint_width_groups(self, machine):
        a = SuperblockArray(machine, num_superblocks=4, width=4)
        b = SuperblockArray(
            machine, num_superblocks=4, width=4, disk_offset=4
        )
        a.write({0: ["a"]})
        b.write({0: ["b"]})
        assert a.read([0])[0] == ["a"]
        assert b.read([0])[0] == ["b"]

    def test_half_width_halves_capacity(self, machine):
        full = SuperblockArray(machine, num_superblocks=2)
        half = SuperblockArray(machine, num_superblocks=2, width=4)
        assert half.capacity_items == full.capacity_items // 2
