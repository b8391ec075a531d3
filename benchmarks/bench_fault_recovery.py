"""Fault recovery — the price of answering through failures.

Theorem 6's replicated one-probe dictionary keeps answering while up to
``floor((ceil(2d/3) - 1) / 2)`` of a key's field disks are dead; past that
it must refuse (a typed error), and at no point may it lie.  These
benchmarks put numbers on the two halves of that contract:

1. **Threshold sweep**: kill 0..tolerance+1 of a chosen key's field disks
   and tabulate, per fault count, how many lookups answer, how many raise,
   and what the degraded reads cost relative to the healthy baseline.
2. **Chaos recovery overhead**: run the seeded chaos harness per structure
   and tabulate survival rates and the recovery I/O (retries + repairs)
   that degraded operation charges on top of the healthy run.
3. **Self-healing under rolling failures**: attach the recovery stack
   (health tracker, budgeted rebuild manager, scrubber) and roll seeded
   failures through the disks while the workload keeps running; measure
   time-to-heal, the fraction of operations that ran degraded, and the
   foreground p99 impact.

Outputs: ``benchmarks/results/fault_recovery_*.txt`` (+ .json sidecars)
and ``benchmarks/results/BENCH_recovery.json``.
"""

import json

from repro.analysis.reporting import render_table
from repro.core.interface import DegradedLookupError
from repro.core.static_dict import StaticDictionary, fault_tolerance
from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine

U = 1 << 18
SIGMA = 16


def _build_static(num_disks=8, n=64, seed=3):
    machine = ParallelDiskMachine(num_disks, 16, item_bits=64)
    items = {(11 + i * 131) % U: (i * 37) % (1 << SIGMA) for i in range(n)}
    sd = StaticDictionary.build(
        machine,
        items,
        universe_size=U,
        sigma=SIGMA,
        case="b",
        redundancy="replicate",
        seed=seed,
    )
    return machine, sd, items


def test_static_degradation_threshold_sweep(benchmark, save_table):
    num_disks = 8
    tol = fault_tolerance(num_disks)
    rows = []
    baseline_ios = None
    for f in range(tol + 2):
        machine, sd, items = _build_static(num_disks)
        target = sorted(items)[0]
        doomed = sorted(sd.assignment[target])[:f]
        attach_faults(
            machine,
            FaultPlan.kill_disks(doomed, num_disks=num_disks).events,
        )
        ok = raised = wrong = 0
        before = machine.stats.snapshot()
        for k, v in sorted(items.items()):
            try:
                result = sd.lookup(k)
            except DegradedLookupError:
                raised += 1
                continue
            if result.found and result.value == v:
                ok += 1
            else:
                wrong += 1
        cost = machine.stats.since(before)
        if f == 0:
            baseline_ios = cost.total_ios
        overhead = cost.total_ios / baseline_ios - 1.0
        rows.append(
            [
                f,
                f"{f}/{tol}" if f <= tol else f"{f}/{tol} (beyond)",
                ok,
                raised,
                wrong,
                cost.total_ios,
                f"{overhead:+.1%}",
            ]
        )
        # The contract, per fault count: silence is the only failure mode
        # that never appears.
        assert wrong == 0
        if f <= tol:
            assert ok == len(items) and raised == 0
        else:
            assert raised > 0

    table = render_table(
        ["killed", "of tolerance", "answered", "refused", "wrong",
         "total I/Os", "overhead"],
        rows,
    )
    save_table("fault_recovery_threshold", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_chaos_recovery_overhead(benchmark, save_table):
    rows = []
    for structure in ("static", "basic", "dynamic"):
        report = run_chaos(
            structure, operations=128, capacity=96, num_disks=16
        )
        rows.append(
            [
                structure,
                f"{report.survived}/{report.operations}",
                report.failed_total,
                report.wrong_answers,
                report.retry_ios,
                report.repair_ios,
                f"{report.overhead:+.1%}",
            ]
        )
        assert report.ok  # zero silent wrong answers, every structure
    table = render_table(
        ["structure", "survived", "refused", "wrong", "retry I/Os",
         "repair I/Os", "I/O overhead"],
        rows,
    )
    save_table("fault_recovery_chaos", table)
    # Degradation must be visible, not free: the seeded plan injects
    # transients and stragglers, so recovery rounds are non-zero somewhere.
    assert any(int(r[4]) > 0 for r in rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


_OP_SUFFIXES = (".lookup", ".insert", ".upsert", ".delete", ".contains")


def _op_p99(recorder):
    """p99 effective round cost of the foreground operation spans."""
    costs = sorted(
        s.effective_cost.total_ios
        for s in recorder.iter_spans()
        if s.name.endswith(_OP_SUFFIXES)
    )
    if not costs:
        return 0
    return costs[min(len(costs) - 1, (len(costs) * 99) // 100)]


def test_rolling_failure_recovery(benchmark, save_table, results_dir):
    """Live workload + rolling failures + the self-healing stack."""
    scenarios = []
    rows = []
    configs = [
        # static: permanent kills, rebuild onto spares, scrub in between.
        ("static", dict(rolling=2, repair_budget=6, spares=4, scrub_rate=2)),
        # mutable dicts: rolling transient windows, retry + verify heal.
        ("basic", dict(rolling=3, repair_budget=4)),
        ("dynamic", dict(rolling=3, repair_budget=4)),
    ]
    common = dict(operations=128, capacity=96, num_disks=16)
    for structure, kw in configs:
        # Baseline pass with an empty plan: same build, same workload,
        # same instrumentation — healthy per-op span costs.
        baseline = run_chaos(
            structure,
            plan=FaultPlan(seed=0, num_disks=16, horizon=1, events=()),
            **common,
        )
        report = run_chaos(structure, **kw, **common)
        assert report.ok and report.healed is True
        assert report.wrong_answers == 0
        healthy_p99 = _op_p99(baseline.recorder)
        chaos_p99 = _op_p99(report.recorder)
        p99_overhead = (
            chaos_p99 / healthy_p99 - 1.0 if healthy_p99 else 0.0
        )
        degraded_fraction = report.degraded_spans / report.operations
        blocks_lost = report.recovery["stats"]["blocks_lost"]
        scenarios.append(
            {
                "structure": structure,
                "params": dict(kw),
                "time_to_heal_rounds": report.heal_rounds,
                "degraded_read_fraction": degraded_fraction,
                "foreground_p99_overhead": p99_overhead,
                "wrong_answers": report.wrong_answers,
                "blocks_lost": blocks_lost,
                "rebuilds_completed": report.recovery["stats"][
                    "rebuilds_completed"
                ],
                "blocks_rebuilt": report.recovery["stats"]["blocks_rebuilt"],
                "repair_ios": report.repair_ios,
                "retry_ios": report.retry_ios,
            }
        )
        rows.append(
            [
                structure,
                report.heal_rounds,
                f"{degraded_fraction:.1%}",
                f"{p99_overhead:+.1%}",
                report.recovery["stats"]["rebuilds_completed"],
                blocks_lost,
                report.repair_ios,
            ]
        )
        # The healing contract the chaos suite enforces, re-checked at
        # bench scale: everything heals, nothing is lost.
        assert blocks_lost == 0

    payload = {
        "benchmark": "recovery",
        "config": common,
        "scenarios": scenarios,
    }
    out = results_dir / "BENCH_recovery.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table = render_table(
        ["structure", "heal rounds", "degraded ops", "p99 impact",
         "rebuilds", "blocks lost", "repair I/Os"],
        rows,
    )
    save_table("fault_recovery_healing", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
