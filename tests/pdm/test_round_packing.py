"""The round-packing scheduler: exact costs, invariants, determinism.

``pack_rounds`` is the constructive witness of what the machines *charge*
for a batch — these tests pin the exact round counts the ISSUE demands
(disk-disjoint batches pack to ``⌈m/D⌉``; an adversarial all-same-disk
batch degrades to ``m`` rounds and never deadlocks), the PDM discipline
(never two same-disk requests in a round, never more than ``D`` wide), and
the agreement ``plan_rounds(a).num_rounds == batch_rounds(a)``.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.machine import (
    ParallelDiskHeadMachine,
    ParallelDiskMachine,
    pack_rounds,
)

D = 8
addr = st.tuples(st.integers(0, D - 1), st.integers(0, 30))
batches = st.lists(addr, min_size=0, max_size=60)


class TestExactCounts:
    def test_empty_batch_zero_rounds(self):
        plan = pack_rounds([], num_disks=D)
        assert plan.num_rounds == 0
        assert plan.unique_blocks == 0
        assert plan.max_width == 0

    def test_disk_disjoint_single_round(self):
        # One block on each of the D disks: exactly one parallel round.
        plan = pack_rounds([(d, 5) for d in range(D)], num_disks=D)
        assert plan.num_rounds == 1
        assert plan.max_width == D

    @pytest.mark.parametrize("m", [1, D - 1, D, D + 1, 3 * D, 3 * D + 2])
    def test_round_robin_batch_packs_to_ceil_m_over_d(self, m):
        # m blocks dealt round-robin over the disks — the disk-disjoint
        # regime: multiplicity ceil(m/D) is both the bound and the plan.
        addrs = [(i % D, i // D) for i in range(m)]
        plan = pack_rounds(addrs, num_disks=D)
        assert plan.num_rounds == -(-m // D)

    @pytest.mark.parametrize("m", [1, 2, 7, 19])
    def test_all_same_disk_degrades_to_m_rounds(self, m):
        # Adversarial batch: every request on disk 3.  The PDM can move
        # one of them per round — m rounds, one request each, and the
        # packer terminates (no deadlock) with every request scheduled.
        addrs = [(3, b) for b in range(m)]
        plan = pack_rounds(addrs, num_disks=D)
        assert plan.num_rounds == m
        assert all(len(r) == 1 for r in plan.rounds)
        assert sorted(a for r in plan.rounds for a in r) == addrs

    def test_duplicates_collapse(self):
        plan = pack_rounds([(0, 1)] * 10 + [(1, 2)] * 5, num_disks=D)
        assert plan.requested == 15
        assert plan.unique_blocks == 2
        assert plan.duplicates == 13
        assert plan.num_rounds == 1

    def test_head_model_ignores_disk_conflicts(self):
        # 2D requests on one disk: the head model still packs ceil(2D/D)=2.
        addrs = [(0, b) for b in range(2 * D)]
        plan = pack_rounds(addrs, num_disks=D, distinct_disks=False)
        assert plan.num_rounds == 2
        assert plan.max_width == D


class TestInvariants:
    @given(batches)
    @settings(max_examples=200)
    def test_pdm_rounds_respect_discipline(self, batch):
        """Never two same-disk requests in a round, never more than D."""
        plan = pack_rounds(batch, num_disks=D)
        for rnd in plan.rounds:
            disks = [disk for (disk, _b) in rnd]
            assert len(disks) == len(set(disks)), "same-disk conflict"
            assert len(rnd) <= D
        scheduled = sorted(a for r in plan.rounds for a in r)
        assert scheduled == sorted(set(map(tuple, batch)))

    @given(batches)
    @settings(max_examples=200)
    def test_head_rounds_respect_width_cap(self, batch):
        plan = pack_rounds(batch, num_disks=D, distinct_disks=False)
        assert all(len(r) <= D for r in plan.rounds)
        assert plan.unique_blocks == len(set(map(tuple, batch)))

    @given(batches)
    @settings(max_examples=200)
    def test_plan_matches_charged_cost_both_models(self, batch):
        """plan_rounds is the witness of batch_rounds — and of what
        read_blocks actually charges."""
        for cls in (ParallelDiskMachine, ParallelDiskHeadMachine):
            machine = cls(D, 8)
            plan = machine.plan_rounds(batch)
            assert plan.num_rounds == machine.batch_rounds(batch)
            if batch:
                machine.read_blocks(batch)
                assert machine.stats.read_ios == plan.num_rounds

    @given(batches)
    @settings(max_examples=200)
    def test_pdm_plan_is_optimal(self, batch):
        """Greedy packing achieves the max-multiplicity lower bound."""
        plan = pack_rounds(batch, num_disks=D)
        unique = set(map(tuple, batch))
        if unique:
            per_disk = Counter(disk for (disk, _b) in unique)
            assert plan.num_rounds == max(per_disk.values())

    @given(batches, st.randoms())
    @settings(max_examples=100)
    def test_schedule_is_order_independent(self, batch, rnd):
        """The plan depends on the address *set*, not iteration order."""
        shuffled = list(batch)
        rnd.shuffle(shuffled)
        assert pack_rounds(batch, num_disks=D) == pack_rounds(
            shuffled, num_disks=D
        )

    def test_salt_changes_order_not_cost(self):
        addrs = [(i % D, i // D) for i in range(3 * D)]
        a = pack_rounds(addrs, num_disks=D, salt=0)
        b = pack_rounds(addrs, num_disks=D, salt=1)
        assert a.num_rounds == b.num_rounds
        assert a != b  # different deterministic orderings

    def test_rejects_nonpositive_disks(self):
        with pytest.raises(ValueError):
            pack_rounds([(0, 0)], num_disks=0)


class TestMachineBatchSurface:
    def test_plan_and_read_agree_on_rounds(self, machine):
        addrs = [(d, 0) for d in range(4)]
        machine.write_blocks([(a, [("x", a)], 64) for a in addrs])
        before = machine.stats.read_ios
        plan = machine.plan_rounds(machine._plan_requests(addrs + addrs))
        blocks = machine.read_blocks(addrs + addrs)
        assert plan.num_rounds == 1
        assert plan.duplicates == 4
        assert machine.stats.read_ios - before == 1
        assert set(blocks) == set(addrs)

    def test_batch_rounds_empty_is_zero(self, machine, head_machine):
        assert machine.batch_rounds([]) == 0
        assert head_machine.batch_rounds([]) == 0
