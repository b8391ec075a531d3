"""Executor scaling: wall-clock round time per backend, charged rounds fixed.

The executor seam's contract has two halves.  The *deterministic* half —
identical results, identical charged I/O — is pinned by the differential
suite (``tests/integration/test_executor_parity.py``).  This benchmark
pins the *physical* half: with a modelled per-block transfer time, the
file backend's thread-per-disk fan-out must actually overlap the D
transfers of a parallel round, while its own sequential (``workers=1``)
mode pays for them one after another.  That overlap is the PDM's whole
point — a round costs one transfer, not D — so the speedup at ``D=8`` is
gated at >= 2x (the observed value is near D; the gate is loose so one
noisy CI box cannot flake it).

Every scenario drives the *same* seeded workload, and the charged round
counts are asserted identical across all backends before any wall number
is reported: the clock may move, the accounting may not.

Outputs ``benchmarks/results/BENCH_executors.json`` and
``executors.txt``.  Wall values are machine-dependent; the schema and the
charged counts are fixed.

A second section prices the per-block checksum on the file executor:
microseconds per charged block read of end-to-end-shaped buckets, with
no modelled transfer time, with and without ``attach_faults(machine,
[])`` (checksums on, no faults).  Every file-backed read builds a fresh
Block, so each one is fingerprinted in full.  The checked-over-plain
ratio is reported (the target is at most 2x), never gated: it is a wall
ratio on a shared box.  Outputs ``BENCH_executor_checksums.json`` and
``executor_checksums.txt``.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.analysis.reporting import render_table
from repro.pdm.block import payload_fingerprint
from repro.pdm.executors import create_executor
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine

B = 16
BLOCKS_PER_DISK = 8
#: timed full-stripe read rounds per scenario
ROUNDS = 24
#: modelled per-block transfer time (GIL released while it elapses), so
#: the parallel-vs-sequential ratio measures overlap, not the page cache
TRANSFER_DELAY_NS = 1_500_000
DISK_COUNTS = (4, 8, 16)
#: the CI gate: parallel file backend vs its own workers=1 mode at D=8
SPEEDUP_GATE_D = 8
SPEEDUP_GATE = 2.0

#: checksum section: the end-to-end benchmark's bucket shape (B = 32,
#: about 16 ``(key, tag, value)`` items) on D = 8 file-backed disks
CHECKSUM_DISKS = 8
CHECKSUM_B = 32
CHECKSUM_ITEMS = 16
CHECKSUM_BLOCKS_PER_DISK = 16
#: timed full-stripe read rounds per pass, and alternating passes per
#: variant (the reported value is the median pass)
CHECKSUM_ROUNDS = 64
CHECKSUM_PASSES = 5
#: ROADMAP item 3's target for the checked-over-plain read ratio
CHECKSUM_TARGET = 2.0


def _build_executor(name, disks, tmp_path):
    directory = str(tmp_path / f"{name}-d{disks}")
    if name == "simulated":
        return None
    if name == "file":
        return create_executor(
            "file", directory=directory, transfer_delay_ns=TRANSFER_DELAY_NS
        )
    if name == "file-seq":
        return create_executor(
            "file", directory=directory, workers=1,
            transfer_delay_ns=TRANSFER_DELAY_NS,
        )
    raise ValueError(name)


def _run_scenario(name, disks, tmp_path):
    """One backend, one D: fill, warm, then time ROUNDS full stripes.

    Returns ``(elapsed_ms, round_us, charged)`` where ``charged`` is the
    (rounds, blocks) read during the timed window only — the quantity
    that must be identical across every backend.
    """
    machine = ParallelDiskMachine(
        disks, B, executor=_build_executor(name, disks, tmp_path)
    )
    try:
        machine.write_blocks(
            ((d, b), [d, b], 24)
            for d in range(disks) for b in range(BLOCKS_PER_DISK)
        )
        # One warm pass: page cache, thread spin-up.
        machine.read_blocks([(d, 0) for d in range(disks)])

        before = (machine.stats.read_ios, machine.stats.blocks_read)
        t0 = time.perf_counter_ns()
        for r in range(ROUNDS):
            blocks = machine.read_blocks(
                [(d, (r + d) % BLOCKS_PER_DISK) for d in range(disks)]
            )
            assert len(blocks) == disks
        elapsed_ns = time.perf_counter_ns() - t0
        charged = (
            machine.stats.read_ios - before[0],
            machine.stats.blocks_read - before[1],
        )
    finally:
        machine.close()
    return elapsed_ns / 1e6, elapsed_ns / ROUNDS / 1e3, charged


def test_executor_scaling(benchmark, save_table, results_dir, tmp_path):
    scenarios = []
    wall = {}
    for disks in DISK_COUNTS:
        charged_by_backend = {}
        for name in ("simulated", "file", "file-seq"):
            elapsed_ms, round_us, charged = _run_scenario(
                name, disks, tmp_path
            )
            charged_by_backend[name] = charged
            wall[(name, disks)] = elapsed_ms
            scenarios.append({
                "executor": name,
                "disks": disks,
                "elapsed_ms": round(elapsed_ms, 3),
                "round_us": round(round_us, 2),
                "charged_rounds": charged[0],
                "charged_blocks": charged[1],
            })
        # The accounting half of the contract: every backend charged the
        # same rounds and moved the same blocks for the same workload.
        assert len(set(charged_by_backend.values())) == 1, (
            f"charged-I/O divergence at D={disks}: {charged_by_backend}"
        )
        assert charged_by_backend["simulated"] == (ROUNDS, ROUNDS * disks)

    speedups = {
        f"file_parallel_over_sequential_d{disks}": round(
            wall[("file-seq", disks)] / wall[("file", disks)], 2
        )
        for disks in DISK_COUNTS
    }
    gate_key = f"file_parallel_over_sequential_d{SPEEDUP_GATE_D}"
    assert speedups[gate_key] >= SPEEDUP_GATE, (
        f"file backend failed to overlap parallel rounds: "
        f"{speedups[gate_key]}x < {SPEEDUP_GATE}x at D={SPEEDUP_GATE_D} "
        f"(sequential {wall[('file-seq', SPEEDUP_GATE_D)]:.1f}ms vs "
        f"parallel {wall[('file', SPEEDUP_GATE_D)]:.1f}ms)"
    )

    payload = {
        "benchmark": "executors",
        "config": {
            "block_items": B,
            "blocks_per_disk": BLOCKS_PER_DISK,
            "rounds": ROUNDS,
            "transfer_delay_ns": TRANSFER_DELAY_NS,
            "disk_counts": list(DISK_COUNTS),
            "speedup_gate": SPEEDUP_GATE,
        },
        "scenarios": scenarios,
        "speedups": speedups,
    }
    out = results_dir / "BENCH_executors.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [
        [
            sc["executor"], sc["disks"], sc["elapsed_ms"], sc["round_us"],
            sc["charged_rounds"], sc["charged_blocks"],
        ]
        for sc in scenarios
    ]
    table = render_table(
        ["executor", "D", "elapsed ms", "round us", "rounds", "blocks"],
        rows,
    )
    table += "\n" + "\n".join(
        f"{key}: {value}x" for key, value in sorted(speedups.items())
    )
    save_table("executors", table)

    # pytest-benchmark compatibility: time one parallel file-backed round.
    bench_machine = ParallelDiskMachine(
        4, B, executor=_build_executor("file", 4, tmp_path / "bench")
    )
    try:
        bench_machine.write_blocks(
            ((d, 0), [d], 24) for d in range(4)
        )
        benchmark.pedantic(
            lambda: bench_machine.read_blocks([(d, 0) for d in range(4)]),
            rounds=5, iterations=2,
        )
    finally:
        bench_machine.close()


# -- the checksum section ------------------------------------------------------


def _bucket(disk, index):
    """An end-to-end-shaped bucket payload: ``(key, tag, value)`` items."""
    base = (disk * CHECKSUM_BLOCKS_PER_DISK + index) * CHECKSUM_ITEMS
    return [(base + i, i % 3, base + i) for i in range(CHECKSUM_ITEMS)]


def _checksum_machine(tmp_path, checksums):
    name = "checked" if checksums else "plain"
    machine = ParallelDiskMachine(
        CHECKSUM_DISKS, CHECKSUM_B,
        executor=create_executor("file", directory=str(tmp_path / name)),
    )
    if checksums:
        attach_faults(machine, [])
    used_bits = CHECKSUM_ITEMS * machine.item_bits
    machine.write_blocks(
        ((d, b), _bucket(d, b), used_bits)
        for d in range(CHECKSUM_DISKS)
        for b in range(CHECKSUM_BLOCKS_PER_DISK)
    )
    machine.read_blocks([(d, 0) for d in range(CHECKSUM_DISKS)])  # warm
    return machine


def _timed_reads(machine):
    """One pass of full-stripe reads: ``(us per charged block, charged)``."""
    before = (machine.stats.read_ios, machine.stats.blocks_read)
    t0 = time.perf_counter_ns()
    for r in range(CHECKSUM_ROUNDS):
        machine.read_blocks([
            (d, (r + d) % CHECKSUM_BLOCKS_PER_DISK)
            for d in range(CHECKSUM_DISKS)
        ])
    elapsed_ns = time.perf_counter_ns() - t0
    charged = (
        machine.stats.read_ios - before[0],
        machine.stats.blocks_read - before[1],
    )
    return elapsed_ns / charged[1] / 1e3, charged


def _fingerprint_us():
    """Microseconds per fingerprint of one end-to-end-shaped bucket."""
    buckets = [
        _bucket(d, b)
        for d in range(CHECKSUM_DISKS)
        for b in range(CHECKSUM_BLOCKS_PER_DISK)
    ]
    used_bits = CHECKSUM_ITEMS * 64
    t0 = time.perf_counter_ns()
    for _ in range(CHECKSUM_PASSES):
        for payload in buckets:
            payload_fingerprint(payload, used_bits)
    elapsed_ns = time.perf_counter_ns() - t0
    return elapsed_ns / (CHECKSUM_PASSES * len(buckets)) / 1e3


def test_checksum_read_cost(save_table, results_dir, tmp_path):
    machines = {
        "plain": _checksum_machine(tmp_path, checksums=False),
        "checked": _checksum_machine(tmp_path, checksums=True),
    }
    try:
        assert machines["checked"].checksums
        assert not machines["plain"].checksums
        per_block = {name: [] for name in machines}
        charged = {name: set() for name in machines}
        for _ in range(CHECKSUM_PASSES):  # alternate, so drift hits both
            for name, machine in machines.items():
                us, counts = _timed_reads(machine)
                per_block[name].append(us)
                charged[name].add(counts)
    finally:
        for machine in machines.values():
            machine.close()

    # Checksums may cost wall time, never charged I/O.
    assert charged["plain"] == charged["checked"] == {
        (CHECKSUM_ROUNDS, CHECKSUM_ROUNDS * CHECKSUM_DISKS)
    }
    medians = {name: statistics.median(v) for name, v in per_block.items()}
    ratio = medians["checked"] / medians["plain"]
    fingerprint_us = _fingerprint_us()

    payload = {
        "benchmark": "executor_checksums",
        "config": {
            "executor": "file",
            "disks": CHECKSUM_DISKS,
            "block_items": CHECKSUM_B,
            "bucket_items": CHECKSUM_ITEMS,
            "rounds_per_pass": CHECKSUM_ROUNDS,
            "passes": CHECKSUM_PASSES,
            "transfer_delay_ns": 0,
            "target_ratio": CHECKSUM_TARGET,
        },
        "us_per_charged_read": {
            name: round(value, 2) for name, value in medians.items()
        },
        "checked_over_plain": round(ratio, 2),
        "fingerprint_us_per_bucket": round(fingerprint_us, 2),
        "charged_rounds": CHECKSUM_ROUNDS,
        "charged_blocks": CHECKSUM_ROUNDS * CHECKSUM_DISKS,
    }
    out = results_dir / "BENCH_executor_checksums.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table = render_table(
        ["checksums", "us / charged read", "rounds", "blocks"],
        [
            [name, round(medians[name], 2), CHECKSUM_ROUNDS,
             CHECKSUM_ROUNDS * CHECKSUM_DISKS]
            for name in ("plain", "checked")
        ],
    )
    table += (
        f"\nchecked_over_plain: {ratio:.2f}x (target <= {CHECKSUM_TARGET}x,"
        f" not gated)\nfingerprint_us_per_bucket: {fingerprint_us:.2f}"
    )
    save_table("executor_checksums", table)
