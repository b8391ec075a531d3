"""Differential executor equivalence (the Issue 9 headline invariant).

Round planning and charging live entirely above the executor seam, so
both backends — the in-memory simulator and thread-per-disk real files —
must produce *bit-identical* deterministic outputs for the same
operation sequence: results, ``IOStats``, trace footprints (the recorded
``RoundPlan`` witness of every batch), healthy and under fault plans.
These tests drive the same seeded workload through both and compare
everything; the threading smoke at the bottom hammers one file-backed
dictionary from eight concurrent readers.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facade import ParallelDiskDictionary
from repro.faults import FaultPlan
from repro.pdm import (
    ParallelDiskHeadMachine,
    ParallelDiskMachine,
    attach_faults,
    create_executor,
)
from repro.pdm.errors import IOFault
from repro.pdm.trace import attach

EXECUTORS = ("simulated", "file")

D = 4
B = 8
BLOCKS_PER_DISK = 6


def _make_executor(name, tmp_path, tag):
    if name == "simulated":
        return None
    return create_executor(name, directory=str(tmp_path / f"{name}-{tag}"))


def _fault_plan(seed):
    plan = FaultPlan.generate(
        seed, num_disks=D, horizon=120, corruption_rate=0.05,
        blocks_per_disk=BLOCKS_PER_DISK,
    )
    victim = seed % D
    return plan.merged(
        FaultPlan.kill_disks([victim], num_disks=D, start=20, end=40)
    )


def _drive(machine, seed, *, faults, steps=24):
    """One seeded workload; returns every deterministic observable.

    The footprint records, per step, the op kind, the served payloads and
    the *types* of the failures — exactly what a caller of the machine
    can see.  The trace events append the charged ``RoundPlan`` witness
    of every batch, and the stats snapshot seals the charged totals.
    """
    rng = random.Random(seed)
    tracer = attach(machine)
    if faults:
        attach_faults(machine, _fault_plan(seed).events, retry_budget=4)
    footprint = []
    for step in range(steps):
        roll = rng.random()
        count = rng.randint(1, 2 * D)
        addrs = list(dict.fromkeys(
            (rng.randrange(D), rng.randrange(BLOCKS_PER_DISK))
            for _ in range(count)
        ))
        if roll < 0.4:
            writes = [
                (addr, [seed, step, i], 24) for i, addr in enumerate(addrs)
            ]
            try:
                machine.write_blocks(writes)
                footprint.append(("write", len(writes)))
            except IOFault as exc:
                footprint.append(("write-fault", type(exc).__name__))
        elif roll < 0.8:
            blocks, failures, plan = machine.read_rounds_degraded(addrs)
            footprint.append((
                "read",
                sorted((a, b.payload) for a, b in blocks.items()),
                sorted((a, type(f).__name__) for a, f in failures.items()),
                plan.rounds,
            ))
        else:
            plan = machine.plan_rounds(machine._plan_requests(addrs))
            footprint.append(("plan", plan.rounds, plan.requested))
    events = [(e.kind, e.addrs, e.rounds) for e in tracer.events]
    return footprint, events, machine.stats.snapshot()


@pytest.mark.parametrize("faults", [False, True], ids=["healthy", "faulted"])
@pytest.mark.parametrize(
    "machine_cls", [ParallelDiskMachine, ParallelDiskHeadMachine]
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_executors_bit_identical(
    tmp_path, machine_cls, seed, faults
):
    observed = {}
    for name in EXECUTORS:
        machine = machine_cls(
            D, B, executor=_make_executor(name, tmp_path, f"{seed}-{faults}")
        )
        try:
            observed[name] = _drive(machine, seed, faults=faults)
        finally:
            machine.close()
    assert observed["file"] == observed["simulated"]


@given(seed=st.integers(0, 2**32 - 1), faults=st.booleans())
@settings(max_examples=25, deadline=None)
def test_file_executor_property_parity(tmp_path_factory, seed, faults):
    """Hypothesis sweep: any seed, any fault toggle — the file backend's
    deterministic outputs match the simulator's exactly."""
    observed = {}
    for name in ("simulated", "file"):
        tmp = tmp_path_factory.mktemp("parity")
        machine = ParallelDiskMachine(
            D, B, executor=_make_executor(name, tmp, seed)
        )
        try:
            observed[name] = _drive(machine, seed, faults=faults, steps=12)
        finally:
            machine.close()
    assert observed["file"] == observed["simulated"]


@pytest.mark.parametrize("name", EXECUTORS[1:])
def test_facade_level_parity(tmp_path, name):
    """Same dictionary workload through the facade: identical answers and
    identical aggregated I/O accounting, across rebuild generations."""

    def run(executor=None, executor_dir=None):
        d = ParallelDiskDictionary(
            universe_size=1 << 12, capacity=64, unbounded=True, seed=5,
            executor=executor, executor_dir=executor_dir,
        )
        with d:
            for k in range(0, 300, 3):
                d.insert(k, k * 7)
            for k in range(0, 300, 7):
                d.delete(k)
            answers = [
                (k, d.lookup(k).found, d.lookup(k).value)
                for k in range(0, 300, 2)
            ]
            stats = d.io_stats()
        return answers, (
            stats.read_ios, stats.write_ios,
            stats.blocks_read, stats.blocks_written,
        )

    baseline = run()
    assert run(executor=name, executor_dir=str(tmp_path / name)) == baseline


@pytest.mark.parametrize(
    "build",
    [
        lambda d: create_executor("process", directory=d),
        lambda d: ParallelDiskDictionary(
            universe_size=1 << 12, executor="process", executor_dir=d
        ),
        lambda d: ParallelDiskDictionary(
            universe_size=1 << 12, executor="process"
        ),
    ],
    ids=["create_executor", "facade", "facade-no-dir"],
)
def test_unknown_executor_name_is_rejected(tmp_path, build):
    with pytest.raises(ValueError, match=r"'simulated', 'file'"):
        build(str(tmp_path / "x"))
    assert not (tmp_path / "x").exists()


class TestFileExecutorThreadingSmoke:
    """Eight concurrent readers over one file-backed dictionary: per-disk
    logs are served by stateless ``pread`` calls, so parallel lookups must
    neither crash nor return wrong answers."""

    THREADS = 8
    ROUNDS = 3

    def test_concurrent_readers(self, tmp_path):
        d = ParallelDiskDictionary(
            universe_size=1 << 14, capacity=256, seed=11,
            executor="file", executor_dir=str(tmp_path / "smoke"),
        )
        with d:
            rng = random.Random(11)
            live = sorted(rng.sample(range(1 << 14), 200))
            absent = [k for k in range(1 << 14) if k not in set(live)][:200]
            for k in live:
                d.insert(k, k ^ 0x5A5A)

            errors = []
            barrier = threading.Barrier(self.THREADS)

            def reader(worker):
                try:
                    barrier.wait(timeout=60)
                    for _ in range(self.ROUNDS):
                        for k in live[worker::self.THREADS]:
                            res = d.lookup(k)
                            if not res.found or res.value != (k ^ 0x5A5A):
                                errors.append((worker, k, "wrong hit"))
                        for k in absent[worker::self.THREADS]:
                            if d.lookup(k).found:
                                errors.append((worker, k, "phantom"))
                except Exception as exc:  # pragma: no cover - smoke guard
                    errors.append((worker, None, repr(exc)))

            threads = [
                threading.Thread(target=reader, args=(w,), daemon=True)
                for w in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "reader hung"
            assert errors == []
