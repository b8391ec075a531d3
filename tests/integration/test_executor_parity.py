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

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.core.facade import ParallelDiskDictionary
from repro.core.interface import (
    DegradedLookupError,
    DegradedModeError,
    LookupResult,
)
from repro.core.static_dict import StaticDictionary
from repro.faults import FaultPlan
from repro.fs.blockfile import HEADER_SIZE
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
            plan = machine.plan_rounds(machine._plan_requests(addrs))
            blocks, failures = machine.read_blocks_degraded(addrs)
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


ITEMS = {(7 + 97 * i) % (1 << 16): (31 * i) % (1 << 16) for i in range(32)}


def _static_case(case, redundancy):
    def build(machine):
        sd = StaticDictionary.build(
            machine, ITEMS, universe_size=1 << 16, sigma=16, case=case,
            redundancy=redundancy, degree=8, seed=3,
        )
        return sd, sd.array, sd.graph, sd.assignment[min(ITEMS)][0]

    return build


def _dynamic_case(machine):
    d = DynamicDictionary(
        machine, universe_size=1 << 16, capacity=64, sigma=16, seed=9
    )
    for k, v in sorted(ITEMS.items()):
        d.insert(k, v)
    level, head = d.membership.lookup(min(ITEMS)).value
    return d, d.levels[level], d.level_graphs[level], head


def _corrupt_victim_field(machine, array, graph, stripe):
    """Flip a byte inside the frame holding ``min(ITEMS)``'s field on
    ``stripe``: the frame's CRC no longer matches."""
    loc = (stripe, dict(graph.striped_neighbors(min(ITEMS)))[stripe])
    addr, _slot = array._block_addr(loc)
    _corrupt_frame(machine, addr)


def _corrupt_frame(machine, addr):
    """Flip a byte inside the frame of block ``addr``."""
    disk, block = addr
    log = machine.executor._logs[disk]
    offset, _length = log.frame_extent(block)
    with open(log.path, "r+b") as handle:
        handle.seek(offset + HEADER_SIZE + 1)
        byte = handle.read(1)
        handle.seek(offset + HEADER_SIZE + 1)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _file_machine(tmp_path, num_disks):
    return ParallelDiskMachine(
        num_disks, 16, item_bits=64,
        executor=create_executor("file", directory=str(tmp_path / "disks")),
    )


@pytest.mark.parametrize(
    "build, num_disks, decidable",
    [
        (_static_case("a", "standard"), 16, False),
        (_static_case("b", "replicate"), 8, True),
        (_dynamic_case, 16, False),
    ],
    ids=["static-a", "static-b-replicate", "dynamic"],
)
def test_bad_frame_without_injector_degrades_per_key(
    tmp_path, build, num_disks, decidable
):
    """A CRC-bad frame on the file executor, no injector attached: the
    field read reports it like any unreadable block, so single and batched
    lookups agree on a sound answer or a typed DegradedLookupError per key,
    and never surface the raw IOFault."""
    machine = _file_machine(tmp_path, num_disks)
    try:
        d, array, graph, stripe = build(machine)
        _corrupt_victim_field(machine, array, graph, stripe)
        absent = [k for k in range(1, 1 << 16, 89) if k not in ITEMS][:4]
        keys = sorted(ITEMS)[:12] + absent
        batched, _cost = d.batch_lookup(keys)
        for key in keys:
            try:
                single = d.lookup(key)
            except DegradedLookupError as exc:
                single = exc
            answers = [single, batched[key]]
            if isinstance(single, DegradedLookupError):
                assert all(isinstance(a, DegradedLookupError) for a in answers)
                continue
            for answer in answers:
                assert isinstance(answer, LookupResult), answer
                assert answer.found == (key in ITEMS)
                assert answer.value == ITEMS.get(key)
        if decidable:
            assert isinstance(batched[min(ITEMS)], LookupResult)
    finally:
        machine.close()


def test_bad_frame_without_injector_leaks_on_batch_delete(tmp_path):
    """The batched chain clear walks past nothing it could not read: a
    chain crossing a CRC-bad frame leaks its fields, and the deletes
    stand."""
    machine = _file_machine(tmp_path, 16)
    try:
        d, array, graph, stripe = _dynamic_case(machine)
        _corrupt_victim_field(machine, array, graph, stripe)
        keys = sorted(ITEMS)[:6]
        out, _cost = d.batch_delete(keys)
        assert out == {key: True for key in keys}
        after, _cost = d.batch_lookup(keys)
        assert all(not after[key].found for key in keys)
    finally:
        machine.close()


def test_bad_frame_without_injector_refuses_basic_mutations_per_key(
    tmp_path,
):
    """Basic batch upserts and deletes on the file executor with a CRC-bad
    bucket frame and no injector: only the keys with the bad bucket among
    their candidates are refused (DegradedModeError); every other key
    commits and reads back, and no raw IOFault escapes the batch."""
    machine = _file_machine(tmp_path, 8)
    try:
        d = BasicDictionary(
            machine, universe_size=1 << 16, capacity=64, stripe_size=8,
            seed=5,
        )
        out, _cost = d.batch_insert(ITEMS)
        assert all(res == (False, None) for res in out.values())
        victim = min(ITEMS)
        bad = d.graph.striped_neighbors(victim)[2]
        _corrupt_frame(machine, d.buckets.block_addrs([bad])[0])

        def exposed(key):
            return bad in d.graph.striped_neighbors(key)

        fresh = [k for k in range(1, 1 << 16, 89) if k not in ITEMS][:24]
        present = sorted(ITEMS)[:16]
        upserts = {k: k % 1000 for k in present + fresh}
        out, _cost = d.batch_insert(upserts)
        assert any(exposed(k) for k in upserts)
        assert any(not exposed(k) for k in upserts)
        for key, res in out.items():
            if exposed(key):
                assert isinstance(res, DegradedModeError), res
                assert list(res.failures) == [bad]
                assert isinstance(res.failures[bad], IOFault)
            else:
                assert res == (key in ITEMS, ITEMS.get(key)), res
        safe = [k for k in upserts if not exposed(k)]
        found, _cost = d.batch_lookup(safe)
        assert all(found[k].value == upserts[k] for k in safe)

        doomed = sorted(ITEMS)[16:] + fresh[:4]
        out, _cost = d.batch_delete(doomed)
        for key in doomed:
            if exposed(key):
                assert isinstance(out[key], DegradedModeError), out[key]
            else:
                assert out[key] is (key in ITEMS or key in safe), out[key]
        gone = [k for k in doomed if not exposed(k)]
        after, _cost = d.batch_lookup(gone)
        assert gone and all(not after[k].found for k in gone)
    finally:
        machine.close()


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
