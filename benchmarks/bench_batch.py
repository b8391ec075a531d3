"""Batched operations: the round-packing payoff, measured.

A batch of ``m`` uniform lookups must pack into at most ``⌈m/D⌉ + 2``
parallel rounds — at least ``D/2`` times fewer than the ``m`` rounds the
sequential loop pays — while the per-operation I/O counters stay exactly
what the sequential path charges (batching moves *rounds*, not work).

The basic dictionary's arms also report (unenforced) the rounds of an
``m``-key ``batch_insert`` of updates against ``m`` sequential ``upsert``
calls, after asserting that both leave identical bucket contents and
answers (the batch places keys exactly as the sequential loop would).

Outputs: ``benchmarks/results/BENCH_batch.json`` (machine-readable, the
acceptance artefact) plus ``batch_rounds.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json

from repro.analysis.reporting import render_table
from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.pdm.machine import ParallelDiskHeadMachine, ParallelDiskMachine
from repro.workloads.access import uniform_accesses

U = 1 << 16
D = 8


def _stored_keys(n, *, stride=97):
    return [(7 + i * stride) % U for i in range(n)]


def _build_basic(machine_cls):
    machine = machine_cls(D, 16)
    d = BasicDictionary(
        machine, universe_size=U, capacity=512, degree=D, seed=5
    )
    keys = _stored_keys(256)
    for k in keys:
        d.upsert(k, k % 251)
    return d, keys


def _build_dynamic():
    machine = ParallelDiskMachine(32, 32)
    d = DynamicDictionary(
        machine, universe_size=U, capacity=128, sigma=16, seed=9
    )
    keys = _stored_keys(96)
    for k in keys:
        d.insert(k, k % 1000)
    return d, keys


def _measure(d, keys, m, *, num_disks, enforce):
    """One scenario: m uniform probes, sequential vs batched rounds."""
    probes = uniform_accesses(keys, m, seed=3)
    before = [d.lookup(k).cost.total_ios for k in probes]
    _, cost = d.batch_lookup(probes)
    after = [d.lookup(k).cost.total_ios for k in probes]

    sequential = sum(before)
    batched = cost.total_ios
    bound = -(-m // num_disks) + 2
    row = {
        "m": m,
        "num_disks": num_disks,
        "rounds_sequential": sequential,
        "rounds_batched": batched,
        "bound_ceil_m_over_d_plus_2": bound,
        "speedup": round(sequential / batched, 3),
        "per_op_ios_unchanged": before == after,
        "enforced": enforce,
    }
    # Batching must never perturb what single ops are charged.
    assert before == after, "batch run changed per-op I/O counters"
    if enforce:
        assert batched <= bound, (
            f"m={m}: {batched} rounds exceeds ceil(m/D)+2 = {bound}"
        )
        assert sequential >= (num_disks // 2) * batched, (
            f"m={m}: speedup {sequential / batched:.2f}x below D/2"
        )
    return row


def _bucket_contents(d):
    buckets = d.buckets
    return [
        buckets.peek((s, i))
        for s in range(buckets.stripes)
        for i in range(buckets.stripe_size)
    ]


def _measure_upserts(build, m, *, num_disks):
    """Report-only: m updates as one batch_insert vs m sequential upserts,
    on two identical dictionaries."""
    seq, keys = build()
    bat, _ = build()
    updates = {k: (k * 7 + 1) % 251 for k in keys[:m]}
    seq_out = {}
    sequential = 0
    for k, v in updates.items():
        found, old, cost = seq.upsert(k, v)
        seq_out[k] = (found, old)
        sequential += cost.total_ios
    bat_out, cost = bat.batch_insert(updates)
    batched = cost.total_ios
    assert bat_out == seq_out, "batch_insert answers differ from upserts"
    assert _bucket_contents(bat) == _bucket_contents(seq), (
        "batch_insert placed keys differently from sequential upserts"
    )
    answers = [bat.batch_lookup(keys)[0], seq.batch_lookup(keys)[0]]
    assert [
        {k: (r.found, r.value) for k, r in a.items()} for a in answers
    ] == [{k: (True, updates.get(k, k % 251)) for k in keys}] * 2
    return {
        "op": "upsert",
        "m": m,
        "num_disks": num_disks,
        "rounds_sequential": sequential,
        "rounds_batched": batched,
        "bound_ceil_m_over_d_plus_2": None,
        "speedup": round(sequential / batched, 3),
        "per_op_ios_unchanged": None,
        "enforced": False,
    }


def test_batch_round_reduction(benchmark, save_table, results_dir):
    scenarios = []
    for label, build, num_disks, sizes in (
        ("basic/pdm", lambda: _build_basic(ParallelDiskMachine), D,
         [(16, False), (64, True), (128, True)]),
        ("basic/head-model", lambda: _build_basic(ParallelDiskHeadMachine),
         D, [(16, False), (64, True), (128, True)]),
        ("dynamic/pdm", _build_dynamic, 32, [(32, False), (96, True)]),
    ):
        d, keys = build()
        for m, enforce in sizes:
            row = _measure(d, keys, m, num_disks=num_disks, enforce=enforce)
            row["op"] = "lookup"
            row["dictionary"] = label
            scenarios.append(row)
        if label.startswith("basic/"):
            for m, _enforce in sizes:
                row = _measure_upserts(build, m, num_disks=num_disks)
                row["dictionary"] = label
                scenarios.append(row)

    report = {
        "benchmark": "batch",
        "bounds": {
            "rounds": "batched uniform lookups <= ceil(m/D) + 2",
            "speedup": "sequential/batched >= D/2 on enforced scenarios",
            "per_op": "single-op I/O counters identical before/after batch",
            "upsert": "report only: batch_insert of m updates vs m upserts, "
                      "identical contents and answers",
        },
        "scenarios": scenarios,
        "all_enforced_pass": True,  # _measure asserted before we got here
    }
    out = results_dir / "BENCH_batch.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    table = render_table(
        ["dictionary", "op", "m", "seq rounds", "batch rounds",
         "ceil(m/D)+2", "speedup"],
        [
            [s["dictionary"], s["op"], s["m"], s["rounds_sequential"],
             s["rounds_batched"], s["bound_ceil_m_over_d_plus_2"] or "-",
             f'{s["speedup"]:.1f}x']
            for s in scenarios
        ],
    )
    save_table("batch_rounds", table)

    d, keys = _build_basic(ParallelDiskMachine)
    probes = uniform_accesses(keys, 128, seed=3)
    benchmark.pedantic(
        lambda: d.batch_lookup(probes), rounds=5, iterations=1
    )
