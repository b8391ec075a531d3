"""Serving throughput under skew: rounds, wall clock, and the buffer pool.

Section 1.2's webmail/http workload is many simultaneous small reads with
heavy popularity skew.  Because the dictionaries have no directory and
probes are independent block fetches, a server can merge a window of
pending lookups into one machine batch; overlapping hot keys then share
blocks and rounds — and an M-bounded buffer pool (:mod:`repro.pdm.cache`)
makes the hot blocks cost *zero* charged rounds on a hit.

This benchmark measures, per request mix (uniform, Zipf s=1.1/1.5/2.0),
at steady state (one warm pass, then several measured passes drawn from
the same popularity distribution with fresh seeds):

* charged rounds per request, batched, with and without the pool;
* wall-clock operations per second for the same replays;
* the pool's hit rate;

plus the sequential (one-lookup-at-a-time) uncached ops/sec — the raw
hot-path figure the ``__slots__``/fast-path work targets.

Outputs:

* ``benchmarks/results/BENCH_throughput.json`` — the machine-readable
  artefact; CI uploads it as a report.  The same batched path's rounds
  and blocks per op, with and without the pool, are gated exactly on the
  ``benchmarks/e2e`` workloads ``read-hot`` and ``read-hot-cached`` by
  ``make bench-e2e-smoke``.
* ``benchmarks/results/throughput_skew.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.analysis.reporting import render_table
from repro.core.basic_dict import BasicDictionary
from repro.kernels import default_kernel
from repro.pdm.machine import ParallelDiskMachine
from repro.workloads.access import zipf_accesses

U = 1 << 20
D = 16
B = 32
CAPACITY = 20_000
WINDOW = 64
REQUESTS = WINDOW * 8
PASSES = 3  # measured passes per mix, after one warm pass
#: pool size in blocks — a genuine subset of the structure's ~1.26k
#: bucket blocks, charged against the machine's internal memory
CACHE_BLOCKS = 1024
SKEWS = (("uniform", 0.0), ("zipf s=1.1", 1.1),
         ("zipf s=1.5", 1.5), ("zipf s=2.0", 2.0))
#: acceptance floor for the vectorized batch path over the sequential
#: scalar baseline, measured in-run on the same streams (the regression
#: gate re-checks the reported number with the same floor)
BATCHED_SPEEDUP_FLOOR = 3.0
#: best-of-N wall repeats for the batched comparison — this box's
#: sequential baseline alone jitters by ~25%, best-of-7 stabilizes it
TIMING_REPEATS = 7


def _build(cache_blocks=None, kernel=None):
    machine = ParallelDiskMachine(D, B, cache_blocks=cache_blocks)
    d = BasicDictionary(
        machine, universe_size=U, capacity=CAPACITY, degree=D, seed=6,
        kernel=kernel,
    )
    keys = random.Random(6).sample(range(U), CAPACITY)
    for k in keys:
        d.insert(k, None)
    return machine, d, keys


def _streams(keys, s):
    """Warm pass + ``PASSES`` measured passes: fresh samples from the same
    popularity distribution (the ranks are fixed, the draws are not)."""
    out = []
    for p in range(PASSES + 1):
        if s == 0.0:
            out.append(random.Random(p + 1).choices(keys, k=REQUESTS))
        else:
            out.append(zipf_accesses(keys, REQUESTS, s=s, seed=p + 1))
    return out


def _timed(fn, repeats=3):
    """Best-of-N wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _replay_batched(d, stream):
    for start in range(0, len(stream), WINDOW):
        d.lookup_batch(stream[start : start + WINDOW])


def _measure_mix(machine, d, streams):
    """Steady-state charged rounds/request and wall-clock ops/sec."""
    _replay_batched(d, streams[0])  # warm
    measured = streams[1:]
    requests = sum(len(st) for st in measured)
    before = machine.stats.total_ios
    for st in measured:
        _replay_batched(d, st)
    rounds_per_op = (machine.stats.total_ios - before) / requests

    def replay_all():
        for st in measured:
            _replay_batched(d, st)

    elapsed = _timed(replay_all)
    return rounds_per_op, requests / elapsed


def test_throughput_skew_report(benchmark, save_table, results_dir):
    machine, d, keys = _build()
    cmachine, cd, _ = _build(cache_blocks=CACHE_BLOCKS)

    # Raw hot-path figure: sequential uncached lookups, no batching.
    seq_stream = zipf_accesses(keys, REQUESTS, s=1.1, seed=1)
    for k in seq_stream:  # warm the neighborhood memo before timing
        d.lookup(k)
    seq_elapsed = _timed(
        lambda: [d.lookup(k) for k in seq_stream], repeats=5
    )
    sequential_ops_per_sec = len(seq_stream) / seq_elapsed

    scenarios = []
    rows = []
    for label, s in SKEWS:
        streams = _streams(keys, s)
        rpo, ops = _measure_mix(machine, d, streams)

        cstats = cmachine.cache.stats
        base_req = cstats.requests
        base_hits = cstats.hits
        crpo, cops = _measure_mix(cmachine, cd, streams)
        delta_req = cstats.requests - base_req
        hit_rate = (
            (cstats.hits - base_hits) / delta_req if delta_req else 1.0
        )

        scenarios.append({
            "skew": label,
            "s": s,
            "uncached": {
                "rounds_per_op": round(rpo, 4),
                "ops_per_sec": round(ops, 1),
            },
            "cached": {
                "rounds_per_op": round(crpo, 4),
                "ops_per_sec": round(cops, 1),
                "hit_rate": round(hit_rate, 4),
            },
            "round_reduction": round(rpo / crpo, 3) if crpo else None,
        })
        rows.append([
            label, f"{rpo:.3f}", f"{crpo:.3f}",
            f"{hit_rate:.1%}", f"{ops:,.0f}", f"{cops:,.0f}",
        ])

    by_skew = {sc["skew"]: sc for sc in scenarios}
    zipf11 = by_skew["zipf s=1.1"]
    report = {
        "benchmark": "throughput",
        "config": {
            "num_disks": D,
            "block_items": B,
            "capacity": CAPACITY,
            "window": WINDOW,
            "requests_per_pass": REQUESTS,
            "passes": PASSES,
            "cache_blocks": CACHE_BLOCKS,
        },
        "sequential": {
            "ops_per_sec": round(sequential_ops_per_sec, 1),
        },
        "scenarios": scenarios,
        # Machine-relative ratios: these survive CI hardware variance and
        # are what the regression gate leans on for wall-clock health.
        "ratios": {
            "batched_vs_sequential_ops": round(
                zipf11["uncached"]["ops_per_sec"] / sequential_ops_per_sec, 3
            ),
            "cached_vs_uncached_ops_zipf11": round(
                zipf11["cached"]["ops_per_sec"]
                / zipf11["uncached"]["ops_per_sec"], 3
            ),
            "cached_round_reduction_zipf11": zipf11["round_reduction"],
        },
    }
    out = results_dir / "BENCH_throughput.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    table = render_table(
        ["request mix", "rounds/op", "cached rounds/op", "hit rate",
         "ops/sec", "cached ops/sec"],
        rows,
    )
    save_table("throughput_skew", table)

    # Skew helps: hotter mixes need fewer rounds per request.
    assert by_skew["zipf s=2.0"]["uncached"]["rounds_per_op"] < \
        by_skew["uniform"]["uncached"]["rounds_per_op"]
    # Even uniform batches never exceed one round per request.
    assert by_skew["uniform"]["uncached"]["rounds_per_op"] <= 1.0 + 1e-9
    # Acceptance: at the webmail skew the pool at least halves the charged
    # rounds per request relative to the uncached machine.
    assert zipf11["round_reduction"] is None or \
        zipf11["round_reduction"] >= 2.0, (
            f"cache round reduction {zipf11['round_reduction']}x < 2x "
            f"at zipf s=1.1"
        )
    # The pool never *adds* charged rounds on any mix.
    for sc in scenarios:
        assert sc["cached"]["rounds_per_op"] <= \
            sc["uncached"]["rounds_per_op"] + 1e-9, sc["skew"]

    benchmark.pedantic(
        lambda: d.lookup_batch(keys[:WINDOW]), rounds=3, iterations=1
    )


def test_throughput_batched_kernel(benchmark, save_table, results_dir):
    """The batch lookup pipeline on the default (vectorized) kernel,
    measured in-run against both the sequential per-key baseline and the
    same pipeline on the reference ``python`` kernel, on identical
    streams, and gated on the two acceptance criteria:

    * ops/sec >= ``BATCHED_SPEEDUP_FLOOR`` x the sequential baseline;
    * charged rounds **bit-identical** to the reference batched path.

    All three figures come from the same process on the same streams
    (best-of-``TIMING_REPEATS`` wall clock), so the speedup ratio survives
    noisy shared runners where absolute ops/sec does not.  The section is
    merged into ``BENCH_throughput.json`` (read-modify-write, so running
    this test alone via ``-k batched`` keeps the skew report's sections).
    """
    kern = default_kernel()
    if kern is None or kern.name == "python":
        pytest.skip("the default kernel is the reference: nothing to compare")

    machine_ref, d_ref, keys = _build(kernel="python")
    machine_vec, d_vec, _ = _build()  # the process-default kernel

    streams = _streams(keys, 1.1)
    _replay_batched(d_ref, streams[0])  # warm memos + structures
    _replay_batched(d_vec, streams[0])
    measured = streams[1:]
    flat = [k for st in measured for k in st]

    # Charged cost first, before timing reruns touch the machines again.
    before = machine_ref.stats.total_ios
    for st in measured:
        _replay_batched(d_ref, st)
    ref_rounds = machine_ref.stats.total_ios - before
    before = machine_vec.stats.total_ios
    for st in measured:
        _replay_batched(d_vec, st)
    vec_rounds = machine_vec.stats.total_ios - before

    def _replay_all(d):
        for st in measured:
            _replay_batched(d, st)

    n = len(flat)
    seq_ops = n / _timed(
        lambda: [d_ref.lookup(k) for k in flat], repeats=TIMING_REPEATS
    )
    ref_ops = n / _timed(lambda: _replay_all(d_ref), repeats=TIMING_REPEATS)
    vec_ops = n / _timed(lambda: _replay_all(d_vec), repeats=TIMING_REPEATS)

    section = {
        "kernel": kern.name,
        "sequential_ops_per_sec": round(seq_ops, 1),
        "reference_ops_per_sec": round(ref_ops, 1),
        "ops_per_sec": round(vec_ops, 1),
        "speedup_vs_sequential": round(vec_ops / seq_ops, 3),
        "speedup_vs_reference_batched": round(vec_ops / ref_ops, 3),
        "rounds_per_op": round(vec_rounds / n, 4),
        "charged_rounds_equal": ref_rounds == vec_rounds,
    }

    out = results_dir / "BENCH_throughput.json"
    report = (
        json.loads(out.read_text()) if out.exists()
        else {"benchmark": "throughput"}
    )
    report["batched"] = section
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    save_table("throughput_batched", render_table(
        ["path", "ops/sec", "vs sequential", "rounds"],
        [
            ["sequential (per key)", f"{seq_ops:,.0f}", "1.00x",
             str(ref_rounds)],
            ["batched, python kernel (reference)", f"{ref_ops:,.0f}",
             f"{ref_ops / seq_ops:.2f}x", str(ref_rounds)],
            [f"batched, {kern.name} kernel", f"{vec_ops:,.0f}",
             f"{vec_ops / seq_ops:.2f}x", str(vec_rounds)],
        ],
    ))

    # Acceptance: the backend changes the clock, never the charge.
    assert ref_rounds == vec_rounds, (
        f"charged rounds diverged: reference {ref_rounds} vs "
        f"{kern.name} {vec_rounds}"
    )
    assert section["speedup_vs_sequential"] >= BATCHED_SPEEDUP_FLOOR, (
        f"batched kernel path {section['speedup_vs_sequential']}x < "
        f"{BATCHED_SPEEDUP_FLOOR}x over sequential"
    )
    # Flat-array lanes must at least pay for themselves over the same
    # pipeline run on the reference kernel's loops.
    assert vec_ops > ref_ops, (
        f"{kern.name} kernel slower than the reference kernel "
        f"({vec_ops:,.0f} vs {ref_ops:,.0f} ops/sec)"
    )

    benchmark.pedantic(
        lambda: d_vec.lookup_batch(keys[:WINDOW]), rounds=3, iterations=1
    )
