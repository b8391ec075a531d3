"""``python -m repro.obs`` — replay a workload under full instrumentation.

Runs a generated :mod:`repro.workloads` workload against the basic and/or
dynamic dictionary with span tracing, metrics collection and the theorem
bound monitors enabled, then prints a text report and (optionally) writes
JSON Lines span events, a Perfetto-loadable Chrome trace, and a
machine-readable JSON report.

Examples::

    python -m repro.obs --structure basic --operations 512
    python -m repro.obs --structure both --chrome-trace trace.json
    python -m repro.obs --structure dynamic --strict --json report.json
    python -m repro.obs --wall --cache 64

Exit codes:

* ``0`` — run completed, every bound monitor satisfied.
* ``1`` — run completed but a theorem budget was violated (in ``--strict``
  mode the first violation aborts the run, still exit 1 — it is the same
  verdict, delivered earlier).
* ``2`` — operational error: bad parameters, unwritable output paths —
  the run itself is no verdict on the bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.harness import STRUCTURES, report_events, run_instrumented
from repro.obs.monitors import BoundViolationError
from repro.pdm.executors import EXECUTOR_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="replay a workload under span tracing, metrics, and "
        "theorem-bound monitors",
    )
    parser.add_argument(
        "--structure",
        choices=STRUCTURES + ("both",),
        default="basic",
        help="dictionary to instrument (default: basic)",
    )
    parser.add_argument("--disks", type=int, default=16, help="number of disks D")
    parser.add_argument(
        "--block", type=int, default=32, help="items per block B"
    )
    parser.add_argument(
        "--universe", type=int, default=1 << 20, help="key universe size"
    )
    parser.add_argument(
        "--capacity", type=int, default=512, help="dictionary capacity n"
    )
    parser.add_argument(
        "--operations", type=int, default=512, help="workload length"
    )
    parser.add_argument(
        "--sigma", type=int, default=32, help="satellite value bits"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="replay runs of same-kind operations through the round-packed "
        "batch_* methods, up to N operations per batch; the report gains "
        "batch.* metrics (rounds_saved et al.)",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="N",
        help="run the machine with an N-block buffer pool "
        "(repro.pdm.cache); the report gains cache.* metrics",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default="simulated",
        help="physical backend (repro.pdm.executors): the in-memory "
        "simulator or thread-per-disk real files. Every deterministic "
        "output is identical across backends",
    )
    parser.add_argument(
        "--executor-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="directory for the file backends' per-disk block logs "
        "(default: a temporary directory removed after the run)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first theorem-budget violation",
    )
    parser.add_argument(
        "--wall",
        action="store_true",
        help="also time the replay under the layer tracer "
        "(repro.obs.layers); prints p50/p95/p99 wall latency per op, the "
        "per-layer self-time table and the per-disk utilization summary "
        "(implies I/O tracing). Charged costs and every written report "
        "are unaffected.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the replay under cProfile; writes a pstats dump and "
        "prints the top-20 cumulative-time table",
    )
    parser.add_argument(
        "--profile-out",
        type=pathlib.Path,
        default=pathlib.Path("obs_profile.pstats"),
        help="where --profile writes the pstats dump "
        "(default: obs_profile.pstats)",
    )
    parser.add_argument(
        "--jsonl",
        type=pathlib.Path,
        default=None,
        help="write span/metric/violation events as JSON Lines",
    )
    parser.add_argument(
        "--chrome-trace",
        type=pathlib.Path,
        default=None,
        help="write a Chrome trace-event JSON (open in Perfetto); "
        "per-disk tracks are included automatically",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report (BENCH_smoke.json shape)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the text report"
    )
    return parser


def _suffixed(path: pathlib.Path, tag: str, multi: bool) -> pathlib.Path:
    if not multi:
        return path
    return path.with_name(f"{path.stem}-{tag}{path.suffix}")


def _run(args: argparse.Namespace) -> int:
    structures = list(STRUCTURES) if args.structure == "both" else [args.structure]
    multi = len(structures) > 1
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    reports = []
    for structure in structures:
        try:
            if profiler is not None:
                profiler.enable()
            report = run_instrumented(
                structure,
                num_disks=args.disks,
                block_items=args.block,
                universe_size=args.universe,
                capacity=args.capacity,
                operations=args.operations,
                sigma=args.sigma,
                seed=args.seed,
                trace=args.chrome_trace is not None,
                strict=args.strict,
                batch=args.batch,
                cache_blocks=args.cache,
                wall=args.wall,
                executor=args.executor,
                executor_dir=(
                    None if args.executor_dir is None
                    else str(args.executor_dir)
                ),
            )
        except BoundViolationError as exc:
            # A strict-mode abort is still a *violation* verdict (exit 1);
            # exit 2 is reserved for runs that produced no verdict at all.
            print(f"BOUND VIOLATION ({structure}): {exc}", file=sys.stderr)
            return 1
        finally:
            if profiler is not None:
                profiler.disable()
        reports.append(report)

        if not args.quiet:
            print(report.render_text())
            if args.wall:
                print()
                print(report.render_wall_text())
            print()
        if args.jsonl is not None:
            path = _suffixed(args.jsonl, structure, multi)
            count = write_jsonl(path, report_events(report))
            print(f"wrote {count} events to {path}", file=sys.stderr)
        if args.chrome_trace is not None:
            path = _suffixed(args.chrome_trace, structure, multi)
            write_chrome_trace(
                path,
                report.recorder,
                report.tracer,
                num_disks=args.disks,
            )
            print(f"wrote Chrome trace to {path}", file=sys.stderr)
        # Releases executor-held threads/descriptors (and the throwaway
        # image when --executor ran without --executor-dir); a no-op for
        # the default simulated backend.
        report.machine.close()

    if profiler is not None:
        import io
        import pstats

        profiler.dump_stats(args.profile_out)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"wrote profile to {args.profile_out}", file=sys.stderr)
        print(stream.getvalue())

    if args.json is not None:
        payload = {
            "tool": "repro.obs",
            "runs": [r.to_dict() for r in reports],
            "ok": all(r.ok for r in reports),
        }
        args.json.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
        print(f"wrote report to {args.json}", file=sys.stderr)

    return 0 if all(r.ok for r in reports) else 1


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
