"""The bench trajectory: every ``BENCH_*.json`` artifact, accumulated.

Each PR's CI run produces machine-readable benchmark artifacts
(``BENCH_throughput.json``, ``BENCH_batch.json``, ``BENCH_chaos.json``,
``BENCH_smoke.json``, ``BENCH_latency.json``) — but until now they were
only uploaded and forgotten, so the repository had no memory of *which
change moved which number*.  This module ingests every artifact in a
results directory into a flat ``metric name -> value`` map, merges it as
one labelled entry of ``benchmarks/results/trajectory.json`` (committed;
the seed entry comes from ``benchmarks/baselines/throughput.json``), and
recomputes per-metric **regression attribution**: for every consecutive
pair of entries that both report a metric, which entry moved it, in which
direction, and whether that direction is an improvement or a regression
for that metric.

Wall-clock metrics (ops/sec, latency percentiles, overhead) are honest
measurements of whatever machine ran them; they get a noise deadband
before attribution so scheduler jitter does not read as a regression.
Deterministic PDM metrics (rounds/op, hit rates, I/O totals) attribute
exactly.

CLI (also reachable as ``scripts/bench_history.py``)::

    python -m repro.obs.history --results benchmarks/results \\
        --out benchmarks/results/trajectory.json --label pr7 \\
        --seed-baseline benchmarks/baselines/throughput.json

Exit codes: ``0`` — trajectory written; ``2`` — operational error
(unreadable artifacts, bad parameters).  The tracker records; it never
gates (gating lives in ``scripts/check_throughput_regression.py`` and
``scripts/check_obs_overhead.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional

TRAJECTORY_VERSION = 1

#: Relative deadband per metric class before a change is attributed:
#: wall measurements jitter, charged counts do not.
WALL_DEADBAND = 0.05
EXACT_DEADBAND = 1e-9

#: Metric-name fragments marking wall-clock (machine-dependent) metrics.
#: The ``*_vs_*`` ops ratios are quotients of two wall timings — same
#: machine, but still scheduler-noisy — so they take the wide band too.
_WALL_MARKERS = (
    "ops_per_sec", "_us", "overhead", "elapsed", "batched_vs", "cached_vs_",
    "speedup_vs",
)

#: Metric-name fragments whose *increase* is an improvement.  Anything
#: matching neither table attributes with direction "changed".
_HIGHER_IS_BETTER = (
    "ops_per_sec", "hit_rate", "round_reduction", "speedup",
    "survived_fraction", "utilization", "batched_vs", "cached_vs",
)
_LOWER_IS_BETTER = (
    "rounds_per_op", "_us", "overhead", "total_ios", "avg_ios",
    "worst_ios", "wrong_answers", "violations", "errors", "_rounds",
    "degraded_read_fraction", "blocks_lost",
)


def _slug(text: str) -> str:
    """Stable metric-name fragment from a free-form label
    (``"zipf s=1.1"`` → ``"zipf_s1.1"``)."""
    return (
        str(text).strip().replace("=", "").replace(" ", "_").replace("/", "_")
    )


def metric_sense(name: str) -> Optional[bool]:
    """``True`` if higher is better, ``False`` if lower is better,
    ``None`` when the metric has no known direction."""
    for marker in _HIGHER_IS_BETTER:
        if marker in name:
            return True
    for marker in _LOWER_IS_BETTER:
        if marker in name:
            return False
    return None


def is_wall_metric(name: str) -> bool:
    return any(marker in name for marker in _WALL_MARKERS)


# -- per-artifact extractors --------------------------------------------------


def extract_throughput(payload: Dict[str, Any]) -> Dict[str, float]:
    """``BENCH_throughput.json`` (and the committed baseline, which shares
    its schema)."""
    out: Dict[str, float] = {}
    seq = payload.get("sequential", {}).get("ops_per_sec")
    if seq is not None:
        out["throughput.sequential_ops_per_sec"] = seq
    for sc in payload.get("scenarios", ()):
        skew = _slug(sc.get("skew", "?"))
        for mode in ("uncached", "cached"):
            block = sc.get(mode, {})
            for key in ("rounds_per_op", "ops_per_sec", "hit_rate"):
                if key in block:
                    out[f"throughput.{skew}.{mode}.{key}"] = block[key]
        if sc.get("round_reduction") is not None:
            out[f"throughput.{skew}.round_reduction"] = sc["round_reduction"]
    for name, value in payload.get("ratios", {}).items():
        if value is not None:
            out[f"throughput.ratios.{name}"] = value
    batched = payload.get("batched", {})
    for key in (
        "ops_per_sec",
        "reference_ops_per_sec",
        "speedup_vs_sequential",
        "speedup_vs_reference_batched",
        "rounds_per_op",
    ):
        if batched.get(key) is not None:
            out[f"throughput.batched.{key}"] = batched[key]
    return out


def extract_batch(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for sc in payload.get("scenarios", ()):
        label = _slug(sc.get("dictionary", "?"))
        for key in ("rounds_sequential", "rounds_batched", "speedup"):
            if key in sc:
                out[f"batch.{label}.{key}"] = sc[key]
    return out


def extract_chaos(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for run in payload.get("runs", ()):
        label = _slug(run.get("structure", "?"))
        ops = run.get("operations") or 0
        if ops:
            out[f"chaos.{label}.survived_fraction"] = round(
                run.get("survived", 0) / ops, 4
            )
        for key in ("wrong_answers", "overhead", "retry_ios", "repair_ios"):
            if key in run:
                out[f"chaos.{label}.{key}"] = run[key]
    return out


def extract_smoke(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for run in payload.get("runs", ()):
        label = _slug(run.get("structure", "?"))
        if "total_ios" in run:
            out[f"smoke.{label}.total_ios"] = run["total_ios"]
        monitors = run.get("monitors", {})
        if "violations" in monitors:
            out[f"smoke.{label}.monitor_violations"] = len(
                monitors["violations"]
            )
        for kind, stats in run.get("per_kind", {}).items():
            if "avg_ios" in stats:
                out[f"smoke.{label}.avg_ios.{_slug(kind)}"] = stats["avg_ios"]
    return out


def extract_latency(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for section in ("op_classes", "layers"):
        prefix = "latency.op" if section == "op_classes" else "latency.layer"
        for label, stats in payload.get(section, {}).items():
            for key in ("p50", "p95", "p99"):
                if key in stats:
                    out[f"{prefix}.{_slug(label)}.{key}_us"] = stats[key]
    disks = payload.get("disks", {})
    if "mean_utilization" in disks:
        out["latency.mean_disk_utilization"] = disks["mean_utilization"]
    overhead = payload.get("overhead", {})
    if "overhead_fraction" in overhead:
        out["latency.overhead_fraction"] = overhead["overhead_fraction"]
    if "instrumented_ops_per_sec" in overhead:
        out["latency.instrumented_ops_per_sec"] = overhead[
            "instrumented_ops_per_sec"
        ]
    return out


def extract_recovery(payload: Dict[str, Any]) -> Dict[str, float]:
    """``BENCH_recovery.json``: self-healing under rolling failures."""
    out: Dict[str, float] = {}
    for sc in payload.get("scenarios", ()):
        label = _slug(sc.get("structure", "?"))
        for key in (
            "time_to_heal_rounds",
            "degraded_read_fraction",
            "foreground_p99_overhead",
            "wrong_answers",
            "blocks_lost",
        ):
            if key in sc and sc[key] is not None:
                out[f"recovery.{label}.{key}"] = sc[key]
    return out


def extract_executors(payload: Dict[str, Any]) -> Dict[str, float]:
    """``BENCH_executors.json``: wall-clock round time per backend and the
    file backend's parallel-over-sequential speedup (charged rounds are
    asserted identical by the benchmark itself)."""
    out: Dict[str, float] = {}
    for sc in payload.get("scenarios", ()):
        label = f"{_slug(sc.get('executor', '?'))}.d{sc.get('disks', 0)}"
        for key in ("elapsed_ms", "round_us"):
            if key in sc and sc[key] is not None:
                out[f"executors.{label}.{key}"] = sc[key]
    for key, value in payload.get("speedups", {}).items():
        out[f"executors.speedup.{_slug(key)}"] = value
    return out


#: artifact stem -> extractor; ``ingest_results`` globs ``BENCH_*.json``
#: and dispatches here (unknown stems are reported, not silently dropped).
EXTRACTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, float]]] = {
    "BENCH_throughput": extract_throughput,
    "BENCH_batch": extract_batch,
    "BENCH_chaos": extract_chaos,
    "BENCH_smoke": extract_smoke,
    "BENCH_latency": extract_latency,
    "BENCH_recovery": extract_recovery,
    "BENCH_executors": extract_executors,
}


def ingest_results(results_dir) -> Dict[str, Any]:
    """Read every ``BENCH_*.json`` under ``results_dir``.

    Returns ``{"metrics": {...merged flat map...}, "sources": [stems],
    "skipped": [stems without an extractor]}``."""
    results_dir = pathlib.Path(results_dir)
    metrics: Dict[str, float] = {}
    sources: List[str] = []
    skipped: List[str] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        extractor = EXTRACTORS.get(path.stem)
        if extractor is None:
            skipped.append(path.stem)
            continue
        payload = json.loads(path.read_text())
        metrics.update(extractor(payload))
        sources.append(path.stem)
    return {"metrics": metrics, "sources": sources, "skipped": skipped}


# -- the trajectory file ------------------------------------------------------


def load_trajectory(path) -> Dict[str, Any]:
    path = pathlib.Path(path)
    if not path.exists():
        return {"version": TRAJECTORY_VERSION, "entries": [], "attribution": []}
    data = json.loads(path.read_text())
    if data.get("version") != TRAJECTORY_VERSION:
        raise ValueError(
            f"trajectory version {data.get('version')!r} unsupported "
            f"(expected {TRAJECTORY_VERSION})"
        )
    return data


def update_trajectory(
    trajectory: Dict[str, Any],
    label: str,
    metrics: Dict[str, float],
    *,
    sources: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Merge one labelled entry (idempotent: re-running with the same
    label replaces that entry in place, keeping its position) and
    recompute attribution."""
    if not label:
        raise ValueError("an entry label is required (e.g. the PR name)")
    entry = {
        "label": label,
        "sources": sorted(sources or []),
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    }
    entries = trajectory.setdefault("entries", [])
    position = next(
        (
            i
            for i, existing in enumerate(entries)
            if existing.get("label") == label
        ),
        None,
    )
    if position is None:
        entries.append(entry)
    else:
        entries[position] = entry
    trajectory["attribution"] = attribute_changes(entries)
    return trajectory


def attribute_changes(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-metric movement attribution across consecutive entries.

    For every metric and every consecutive pair of entries that both
    report it, emit a record when the relative change clears the metric's
    deadband: which entry moved it, from what to what, and whether that
    is an improvement, a regression, or just a change (unknown sense).
    """
    out: List[Dict[str, Any]] = []
    names: Dict[str, None] = {}
    for entry in entries:
        for name in entry.get("metrics", {}):
            names.setdefault(name)
    for name in sorted(names):
        reporting = [e for e in entries if name in e.get("metrics", {})]
        deadband = WALL_DEADBAND if is_wall_metric(name) else EXACT_DEADBAND
        sense = metric_sense(name)
        for prev, cur in zip(reporting, reporting[1:]):
            v0 = prev["metrics"][name]
            v1 = cur["metrics"][name]
            delta = v1 - v0
            scale = max(abs(v0), abs(v1), 1e-12)
            if abs(delta) / scale <= deadband:
                continue
            if sense is None:
                direction = "changed"
            elif (delta > 0) == sense:
                direction = "improved"
            else:
                direction = "regressed"
            out.append(
                {
                    "metric": name,
                    "label": cur["label"],
                    "prev_label": prev["label"],
                    "prev": v0,
                    "value": v1,
                    "delta": round(delta, 6),
                    "pct_change": round(100.0 * delta / scale, 2),
                    "direction": direction,
                }
            )
    return out


def seed_entry_from_baseline(baseline_path) -> Dict[str, Any]:
    """The trajectory's origin: the committed throughput baseline, read
    through the same extractor as a live ``BENCH_throughput.json``."""
    payload = json.loads(pathlib.Path(baseline_path).read_text())
    return {
        "label": "baseline",
        "metrics": extract_throughput(payload),
        "sources": ["baselines/throughput"],
    }


def write_trajectory(trajectory: Dict[str, Any], path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(trajectory, sort_keys=True, indent=1) + "\n"
    )
    return path


def render_attribution(trajectory: Dict[str, Any], limit: int = 40) -> str:
    rows = trajectory.get("attribution", [])
    if not rows:
        return "trajectory: no attributable metric movement yet"
    lines = [f"trajectory: {len(rows)} attributed movement(s)"]
    shown = rows[:limit]
    for rec in shown:
        lines.append(
            f"  [{rec['direction']:>9}] {rec['metric']}: "
            f"{rec['prev']:g} -> {rec['value']:g} "
            f"({rec['pct_change']:+.1f}%) by {rec['label']} "
            f"(vs {rec['prev_label']})"
        )
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more")
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="merge BENCH_*.json artifacts into the committed "
        "bench trajectory, with per-metric regression attribution",
    )
    parser.add_argument(
        "--results",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory holding the BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results/trajectory.json"),
        help="trajectory file to merge into (created if missing)",
    )
    parser.add_argument(
        "--label",
        required=True,
        help="entry label: the PR / commit this run belongs to",
    )
    parser.add_argument(
        "--seed-baseline",
        type=pathlib.Path,
        default=None,
        help="seed an initial 'baseline' entry from this committed "
        "throughput baseline when the trajectory has none",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the attribution table"
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    trajectory = load_trajectory(args.out)
    if args.seed_baseline is not None and not any(
        e.get("label") == "baseline" for e in trajectory["entries"]
    ):
        seed = seed_entry_from_baseline(args.seed_baseline)
        trajectory["entries"].insert(0, seed)
    ingested = ingest_results(args.results)
    if not ingested["metrics"]:
        print(
            f"error: no ingestible BENCH_*.json under {args.results}",
            file=sys.stderr,
        )
        return 2
    update_trajectory(
        trajectory,
        args.label,
        ingested["metrics"],
        sources=ingested["sources"],
    )
    path = write_trajectory(trajectory, args.out)
    for stem in ingested["skipped"]:
        print(f"note: no extractor for {stem}, skipped", file=sys.stderr)
    print(
        f"wrote {path} ({len(trajectory['entries'])} entries, "
        f"{len(ingested['metrics'])} metrics from "
        f"{', '.join(ingested['sources'])})",
        file=sys.stderr,
    )
    if not args.quiet:
        print(render_attribution(trajectory))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run(args)
    except SystemExit:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
