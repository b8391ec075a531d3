#!/usr/bin/env python
"""Gate the throughput benchmark against its checked-in baseline.

Usage::

    python scripts/check_throughput_regression.py \
        benchmarks/results/BENCH_throughput.json \
        benchmarks/baselines/throughput.json

Compares the current ``BENCH_throughput.json`` (written by
``benchmarks/bench_throughput.py``) against the committed baseline and
exits 1 when any tracked metric regressed beyond its tolerance.

Two classes of metric, two tolerances:

* **Deterministic** PDM metrics — charged rounds per request, cache hit
  rate, round reduction.  These are seeded and hardware-independent, so
  they reproduce exactly; the 20% band only absorbs intentional small
  re-tunings (raise the baseline in the same PR as the change).
* **Wall-clock ratios** — batched-vs-sequential and cached-vs-uncached
  ops/sec.  Absolute ops/sec depend on the runner, and even same-machine
  ratios jitter by tens of percent on shared CI hardware, so these get a
  wide 50% band: the gate catches "the fast path fell off a cliff", not
  scheduler noise.  Absolute ops/sec values are reported, never gated.

The ``batched`` kernel section additionally carries two **absolute**
acceptance gates that hold regardless of the baseline: the vectorized
path must stay >= 3x the in-run sequential baseline, and its charged
rounds must equal those of the same pipeline on the reference kernel.
"""

from __future__ import annotations

import json
import sys

#: (json path, higher_is_worse, tolerance) for per-scenario metrics
SCENARIO_GATES = (
    (("uncached", "rounds_per_op"), True, 0.20),
    (("cached", "rounds_per_op"), True, 0.20),
    (("cached", "hit_rate"), False, 0.20),
    (("round_reduction",), False, 0.20),
)

#: (ratio name, higher_is_worse, tolerance) — wall-clock derived
RATIO_GATES = (
    ("batched_vs_sequential_ops", False, 0.50),
    ("cached_vs_uncached_ops_zipf11", False, 0.50),
    ("cached_round_reduction_zipf11", False, 0.20),
)

#: the ``batched`` kernel section: baseline-relative gates plus two
#: absolute ones checked in ``_check_batched`` (the >=3x speedup floor
#: and exact charged-round equality are acceptance criteria, not
#: regressions — they hold regardless of what the baseline recorded)
BATCHED_GATES = (
    (("rounds_per_op",), True, 0.20),
    (("speedup_vs_sequential",), False, 0.50),
    (("speedup_vs_reference_batched",), False, 0.50),
)
BATCHED_SPEEDUP_FLOOR = 3.0


def _dig(obj, path):
    for key in path:
        if obj is None:
            return None
        obj = obj.get(key)
    return obj


def _check(label, current, baseline, higher_is_worse, tolerance, failures):
    if current is None or baseline is None or not baseline:
        return
    if higher_is_worse:
        limit = baseline * (1.0 + tolerance)
        bad = current > limit
        direction = ">"
    else:
        limit = baseline * (1.0 - tolerance)
        bad = current < limit
        direction = "<"
    verdict = "FAIL" if bad else "ok"
    print(
        f"  [{verdict}] {label}: {current:g} vs baseline {baseline:g} "
        f"(limit {direction} {limit:g})"
    )
    if bad:
        failures.append(label)


def _check_batched(current, baseline, failures):
    batched = current.get("batched")
    if batched is None:
        print("  [warn] no 'batched' section in current report")
        return
    # Absolute acceptance gates — independent of the baseline.
    speedup = batched.get("speedup_vs_sequential")
    if speedup is not None:
        ok = speedup >= BATCHED_SPEEDUP_FLOOR
        print(
            f"  [{'ok' if ok else 'FAIL'}] batched/speedup_vs_sequential "
            f"floor: {speedup:g} (require >= {BATCHED_SPEEDUP_FLOOR:g}x)"
        )
        if not ok:
            failures.append("batched/speedup_floor")
    equal = batched.get("charged_rounds_equal")
    ok = equal is True
    print(
        f"  [{'ok' if ok else 'FAIL'}] batched/charged_rounds_equal: {equal}"
        " (vectorized must charge exactly the reference rounds)"
    )
    if not ok:
        failures.append("batched/charged_rounds_equal")
    # Baseline-relative regression gates.
    base = baseline.get("batched")
    if base is None:
        print("  [warn] no 'batched' baseline yet (gating floors only)")
        return
    for path, worse_up, tol in BATCHED_GATES:
        _check(
            f"batched/{'.'.join(path)}",
            _dig(batched, path), _dig(base, path), worse_up, tol, failures,
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        current = json.loads(open(argv[1]).read())
        baseline = json.loads(open(argv[2]).read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = []
    base_by_skew = {s["skew"]: s for s in baseline.get("scenarios", ())}
    print("throughput regression gate "
          f"({argv[1]} vs {argv[2]})")
    for sc in current.get("scenarios", ()):
        base = base_by_skew.get(sc["skew"])
        if base is None:
            print(f"  [warn] no baseline for scenario {sc['skew']!r}")
            continue
        for path, worse_up, tol in SCENARIO_GATES:
            _check(
                f"{sc['skew']}/{'.'.join(path)}",
                _dig(sc, path), _dig(base, path), worse_up, tol, failures,
            )
    for name, worse_up, tol in RATIO_GATES:
        _check(
            f"ratios/{name}",
            current.get("ratios", {}).get(name),
            baseline.get("ratios", {}).get(name),
            worse_up, tol, failures,
        )
    _check_batched(current, baseline, failures)
    seq = current.get("sequential", {}).get("ops_per_sec")
    if seq is not None:
        print(f"  [info] sequential uncached ops/sec: {seq:g} (not gated)")

    if failures:
        print(f"REGRESSION: {len(failures)} metric(s) beyond tolerance: "
              + ", ".join(failures))
        return 1
    print("all tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
